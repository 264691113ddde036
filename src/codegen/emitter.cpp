#include "codegen/emitter.hpp"

#include <sstream>
#include <string>

namespace fblas::codegen {
namespace {

const char* ctype(Precision p) {
  return p == Precision::Single ? "float" : "double";
}

/// The element type of `stream`: IAMAX's result is an index.
const char* ctype(const RoutineSpec& s, const std::string& stream) {
  return s.kind == RoutineKind::Iamax && stream == "res" ? "int"
                                                         : ctype(s.precision);
}

std::string chan(const RoutineSpec& s, const std::string& stream) {
  return s.user_name + "_ch_" + stream;
}

/// The helper kernel that moves one stream between DRAM and its channel;
/// returns its name.
std::string emit_helper(std::ostringstream& os, const RoutineSpec& s,
                        const std::string& stream, bool input) {
  const char* t = ctype(s, stream);
  const std::string kernel =
      s.user_name + (input ? "_read_" : "_write_") + stream;
  if (input) {
    os << "__kernel void " << kernel << "(__global const " << t
       << "* restrict mem, int n, int repeat) {\n"
       << "  for (int r = 0; r < repeat; r++)\n"
       << "    for (int i = 0; i < n; i++)\n"
       << "      write_channel_intel(" << chan(s, stream) << ", mem[i]);\n";
  } else {
    os << "__kernel void " << kernel << "(__global " << t
       << "* restrict mem, int n) {\n"
       << "  for (int i = 0; i < n; i++)\n"
       << "    mem[i] = read_channel_intel(" << chan(s, stream) << ");\n";
  }
  os << "}\n\n";
  return kernel;
}

void emit_map_module(std::ostringstream& os, const RoutineSpec& s,
                     const Streams& io) {
  // The SCAL-style module of Fig. 4: per element, every input is read and
  // each output written as its expression of them.
  const char* t = ctype(s.precision);
  using List = std::vector<std::string>;
  // The kernel's scalar arguments, and one expression per output.
  const auto [args, exprs] = [&]() -> std::pair<List, List> {
    switch (s.kind) {
      case RoutineKind::Scal: return {{"alpha"}, {"alpha * x"}};
      case RoutineKind::Copy: return {{}, {"x"}};
      case RoutineKind::Axpy: return {{"alpha"}, {"alpha * x + y"}};
      case RoutineKind::Swap: return {{}, {"y", "x"}};
      case RoutineKind::Rot:
        return {{"c", "s"}, {"c * x + s * y", "c * y - s * x"}};
      case RoutineKind::Rotm:
        return {{"h11", "h12", "h21", "h22"},
                {"h11 * x + h12 * y", "h21 * x + h22 * y"}};
      default: return {};
    }
  }();
  if (exprs.empty()) {  // ROTG, ROTMG: one scalar setup, no element loop
    os << "__kernel void " << s.user_name << "() {\n  /* "
       << routine_info(s.kind).name << " setup: " << chan(s, io.in[0])
       << " -> " << chan(s, io.out[0]) << " */\n}\n\n";
    return;
  }
  os << "__kernel void " << s.user_name << "(";
  for (const std::string& a : args) os << t << " " << a << ", ";
  os << "int N) {\n"
     << "  for (int it = 0; it < N / " << s.width << "; it++) {\n"
     << "    #pragma unroll\n"
     << "    for (int i = 0; i < " << s.width << "; i++) {\n";
  for (const std::string& v : io.in) {
    os << "      " << t << " " << v << " = read_channel_intel(" << chan(s, v)
       << ");\n";
  }
  for (std::size_t o = 0; o < io.out.size(); ++o) {
    os << "      write_channel_intel(" << chan(s, io.out[o]) << ", "
       << exprs[o] << ");\n";
  }
  os << "    }\n  }\n}\n\n";
}

void emit_iamax_module(std::ostringstream& os, const RoutineSpec& s) {
  // The index of the first largest |x| (-1 for no elements), carried
  // across the W-wide batches.
  const char* t = ctype(s.precision);
  os << "__kernel void " << s.user_name << "(int N) {\n"
     << "  " << t << " best = 0;\n"
     << "  int res = -1;\n"
     << "  for (int it = 0; it < N / " << s.width << "; it++) {\n"
     << "    #pragma unroll\n"
     << "    for (int i = 0; i < " << s.width << "; i++) {\n"
     << "      " << t << " a = fabs(read_channel_intel(" << chan(s, "x")
     << "));\n"
     << "      if (res < 0 || a > best) {\n"
     << "        best = a;\n"
     << "        res = it * " << s.width << " + i;\n"
     << "      }\n"
     << "    }\n"
     << "  }\n"
     << "  write_channel_intel(" << chan(s, "res") << ", res);\n"
     << "}\n\n";
}

void emit_reduce_module(std::ostringstream& os, const RoutineSpec& s) {
  // The DOT-style module of Fig. 5: W-wide unrolled tree + accumulator.
  const char* t = ctype(s.precision);
  const bool two_inputs =
      s.kind == RoutineKind::Dot || s.kind == RoutineKind::Sdsdot;
  const char* acc_t =
      s.kind == RoutineKind::Sdsdot ? "double" : ctype(s.precision);
  os << "__kernel void " << s.user_name << "(int N) {\n"
     << "  " << acc_t << " res = 0;\n"
     << "  for (int it = 0; it < N / " << s.width << "; it++) {\n"
     << "    " << acc_t << " acc = 0;\n"
     << "    #pragma unroll\n"
     << "    for (int i = 0; i < " << s.width << "; i++) {\n"
     << "      " << t << " x = read_channel_intel(" << chan(s, "x") << ");\n";
  if (two_inputs) {
    os << "      " << t << " y = read_channel_intel(" << chan(s, "y")
       << ");\n"
       << "      acc += x * y;\n";
  } else if (s.kind == RoutineKind::Nrm2) {
    os << "      acc += x * x;\n";
  } else {
    os << "      acc += fabs(x);\n";
  }
  os << "    }\n"
     << "    res += acc;\n"
     << "  }\n";
  if (s.kind == RoutineKind::Nrm2) {
    os << "  write_channel_intel(" << chan(s, "res") << ", sqrt(res));\n";
  } else {
    os << "  write_channel_intel(" << chan(s, "res") << ", res);\n";
  }
  os << "}\n\n";
}

void emit_gemv_module(std::ostringstream& os, const RoutineSpec& s) {
  // As in core::gemv: when y runs along the outer tile dimension its
  // block is reused over the inner tiles and x's blocks stream; otherwise
  // x's block is reused and y's partial blocks round-trip through y and
  // out once per outer step (beta * y on the first).
  const char* t = ctype(s.precision);
  const bool none = s.trans == Transpose::None;
  const bool by_rows = s.tiling == core::MatrixTiling::TilesByRows;
  const bool x_outer = none != by_rows;
  const std::int64_t xlen = none ? s.tile_cols : s.tile_rows;
  const std::int64_t ylen = none ? s.tile_rows : s.tile_cols;
  const char* outer_tiles = by_rows ? "N / " : "M / ";
  const char* inner_tiles = by_rows ? "M / " : "N / ";
  const std::int64_t outer_tile = by_rows ? s.tile_rows : s.tile_cols;
  const std::int64_t inner_tile = by_rows ? s.tile_cols : s.tile_rows;
  const auto load_x = [&](const char* indent) {
    os << indent << "for (int k = 0; k < " << xlen << "; k++)\n"
       << indent << "  local_x[k] = read_channel_intel(" << chan(s, "x")
       << ");\n";
  };
  const auto store_y = [&](const char* indent) {
    os << indent << "for (int k = 0; k < " << ylen << "; k++)\n"
       << indent << "  write_channel_intel(" << chan(s, "out")
       << ", local_y[k]);\n";
  };
  // Element loops in the tile's element order; i runs along A's rows.
  const bool row_elems = s.elem_order == Order::RowMajor;
  const char* first = row_elems ? "i" : "j";
  const char* second = row_elems ? "j" : "i";
  const std::int64_t first_len = row_elems ? s.tile_rows : s.tile_cols;
  const std::int64_t second_len = row_elems ? s.tile_cols : s.tile_rows;
  os << "// GEMV variant: A " << (none ? "" : "^T ") << "in tiles by "
     << (by_rows ? "rows" : "columns") << ", TN=" << s.tile_rows
     << ", TM=" << s.tile_cols << "\n"
     << "__kernel void " << s.user_name << "(" << t << " alpha, " << t
     << " beta, int N, int M) {\n"
     << "  " << t << " local_x[" << xlen << "];\n"
     << "  " << t << " local_y[" << ylen << "];\n"
     << "  for (int to = 0; to < " << outer_tiles << outer_tile
     << "; to++) {\n";
  if (x_outer) {
    load_x("    ");
  } else {
    os << "    for (int k = 0; k < " << ylen << "; k++)\n"
       << "      local_y[k] = beta * read_channel_intel(" << chan(s, "y")
       << ");\n";
  }
  os << "    for (int ti = 0; ti < " << inner_tiles << inner_tile
     << "; ti++) {\n";
  if (x_outer) {
    os << "      for (int k = 0; k < " << ylen << "; k++) {\n"
       << "        " << t << " v = read_channel_intel(" << chan(s, "y")
       << ");\n"
       << "        local_y[k] = to == 0 ? beta * v : v;\n"
       << "      }\n";
  } else {
    load_x("      ");
  }
  os << "      for (int " << first << " = 0; " << first << " < " << first_len
     << "; " << first << "++)\n"
     << "        #pragma unroll " << s.width << "\n"
     << "        for (int " << second << " = 0; " << second << " < "
     << second_len << "; " << second << "++)\n"
     << "          local_y[" << (none ? "i" : "j") << "] += alpha * "
     << "read_channel_intel(" << chan(s, "A") << ") * local_x["
     << (none ? "j" : "i") << "];\n";
  if (x_outer) store_y("      ");
  os << "    }\n";
  if (!x_outer) store_y("    ");
  os << "  }\n}\n\n";
}

void emit_ger_module(std::ostringstream& os, const RoutineSpec& s,
                     const Streams& io) {
  // The GER module: a tile's vector blocks (row-dimension ones at odd
  // stream positions, column-dimension ones at even) load into local
  // buffers, then the A tile streams through, updated element by element.
  const char* t = ctype(s.precision);
  const char* update = s.kind == RoutineKind::Ger   ? "x[i] * y[j]"
                       : s.kind == RoutineKind::Syr ? "x_row[i] * x_col[j]"
                                                    : "x_row[i] * y_col[j] + "
                                                      "y_row[i] * x_col[j]";
  os << "// " << s.blas_name() << ": A in tiles of TN=" << s.tile_rows
     << ", TM=" << s.tile_cols << "\n"
     << "__kernel void " << s.user_name << "(" << t
     << " alpha, int N, int M) {\n"
     << "  for (int ti = 0; ti < N / " << s.tile_rows << "; ti++)\n"
     << "    for (int tj = 0; tj < M / " << s.tile_cols << "; tj++) {\n";
  for (std::size_t v = 1; v < io.in.size(); ++v) {
    const std::int64_t len = v % 2 == 1 ? s.tile_rows : s.tile_cols;
    os << "      " << t << " " << io.in[v] << "[" << len << "];\n"
       << "      for (int k = 0; k < " << len << "; k++) " << io.in[v]
       << "[k] = read_channel_intel(" << chan(s, io.in[v]) << ");\n";
  }
  os << "      for (int i = 0; i < " << s.tile_rows << "; i++)\n"
     << "        #pragma unroll " << s.width << "\n"
     << "        for (int j = 0; j < " << s.tile_cols << "; j++)\n"
     << "          write_channel_intel(" << chan(s, io.out[0])
     << ", read_channel_intel(" << chan(s, io.in[0]) << ") + alpha * ("
     << update << "));\n"
     << "    }\n}\n\n";
}

void emit_systolic_module(std::ostringstream& os, const RoutineSpec& s,
                          const Streams& io) {
  // Per compute tile: acc starts as beta * Cin, every k step feeds a_reg
  // from the column panels (scaled by alpha) and b_reg from the row
  // panels, and the drain writes acc to out. SYR2K pairs column panel p
  // with row panel 1 - p (A B^T + B A^T), as core::gemm_pairs does.
  const char* t = ctype(s.precision);
  const std::size_t pairs = (io.in.size() - 1) / 2;
  os << "// Systolic " << s.blas_name() << ": " << s.pe_rows << "x"
     << s.pe_cols << " PE grid, compute tile " << s.tile_rows << "x"
     << s.tile_cols << " (single-kernel formulation with shift registers)\n"
     << t << " pe(" << t << " a, " << t << " b, " << t << " *acc) {\n"
     << "  *acc += a * b;\n  return *acc;\n}\n\n"
     << "__kernel void " << s.user_name << "(" << t << " alpha, " << t
     << " beta, int N, int M, int K) {\n"
     << "  " << t << " acc[" << s.tile_rows << "][" << s.tile_cols << "];\n"
     << "  for (int ti = 0; ti < N / " << s.tile_rows << "; ti++)\n"
     << "  for (int tj = 0; tj < M / " << s.tile_cols << "; tj++) {\n"
     << "    for (int r = 0; r < " << s.tile_rows << "; r++)\n"
     << "      for (int c = 0; c < " << s.tile_cols << "; c++)\n"
     << "        acc[r][c] = beta * read_channel_intel("
     << chan(s, io.in.back()) << ");\n"
     << "    for (int k = 0; k < K; k++) {\n"
     << "      " << t << " a_reg[" << pairs << "][" << s.tile_rows
     << "], b_reg[" << pairs << "][" << s.tile_cols << "];\n";
  for (std::size_t p = 0; p < pairs; ++p) {
    os << "      for (int r = 0; r < " << s.tile_rows << "; r++)\n"
       << "        a_reg[" << p << "][r] = alpha * read_channel_intel("
       << chan(s, io.in[p]) << ");\n";
  }
  for (std::size_t p = 0; p < pairs; ++p) {
    os << "      for (int c = 0; c < " << s.tile_cols << "; c++)\n"
       << "        b_reg[" << p << "][c] = read_channel_intel("
       << chan(s, io.in[pairs + p]) << ");\n";
  }
  os << "      // PE (pr, pc) owns rows pr + " << s.pe_rows
     << "u and columns pc + " << s.pe_cols << "v of the tile\n"
     << "      #pragma unroll\n"
     << "      for (int pr = 0; pr < " << s.pe_rows << "; pr++)\n"
     << "        #pragma unroll\n"
     << "        for (int pc = 0; pc < " << s.pe_cols << "; pc++)\n"
     << "          for (int r = pr; r < " << s.tile_rows << "; r += "
     << s.pe_rows << ")\n"
     << "            for (int c = pc; c < " << s.tile_cols << "; c += "
     << s.pe_cols << ") {\n";
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t q = pairs == 1 ? 0 : 1 - p;
    os << "              pe(a_reg[" << p << "][r], b_reg[" << q
       << "][c], &acc[r][c]);\n";
  }
  os << "            }\n"
     << "    }\n"
     << "    // drain chain: " << s.pe_cols << " results per cycle\n"
     << "    for (int r = 0; r < " << s.tile_rows << "; r++)\n"
     << "      for (int c = 0; c < " << s.tile_cols << "; c++)\n"
     << "        write_channel_intel(" << chan(s, io.out[0])
     << ", acc[r][c]);\n"
     << "  }\n}\n\n";
}

void emit_unrolled_module(std::ostringstream& os, const RoutineSpec& s) {
  // As in core::gemm_batched_unrolled / trsm_batched_unrolled: per
  // problem A (TRSM: its lower triangle) then B arrive row-major, and the
  // s x s result leaves row-major.
  const char* t = ctype(s.precision);
  const bool gemm = s.kind == RoutineKind::Gemm;
  const std::string sz = std::to_string(s.fixed_size);
  // Row-major loops over a whole problem, or over its lower triangle.
  const auto loops = [&](bool lower) {
    os << "    for (int i = 0; i < " << sz << "; i++)\n"
       << "      for (int j = 0; j " << (lower ? "<= i" : "< " + sz)
       << "; j++)\n";
  };
  os << "// Fully-unrolled batched "
     << (gemm ? "GEMM" : "TRSM (left, lower)") << " of fixed size " << sz
     << ": a new problem enters every clock cycle (Table V design)\n"
     << "__kernel void " << s.user_name << "(" << t
     << " alpha, int batch) {\n"
     << "  for (int inv = 0; inv < batch; inv++) {\n"
     << "    " << t << " a[" << sz << "][" << sz << "], b[" << sz << "]["
     << sz << "];\n";
  loops(!gemm);
  os << "        a[i][j] = read_channel_intel(" << chan(s, "A") << ");\n";
  loops(false);
  os << "        b[i][j] = " << (gemm ? "" : "alpha * ")
     << "read_channel_intel(" << chan(s, "B") << ");\n";
  // The unrolled s x s compute; TRSM substitutes forward in place (row i
  // of X needs rows 0..i-1) and then writes X.
  os << "    #pragma unroll\n"
     << "    for (int i = 0; i < " << sz << "; i++)\n"
     << "      #pragma unroll\n"
     << "      for (int j = 0; j < " << sz << "; j++) {\n"
     << "        " << t << " acc = " << (gemm ? "0" : "b[i][j]") << ";\n"
     << "        #pragma unroll\n"
     << "        for (int k = 0; k < " << (gemm ? sz : "i") << "; k++)\n";
  if (gemm) {
    os << "          acc += a[i][k] * b[k][j];\n"
       << "        write_channel_intel(" << chan(s, "C")
       << ", alpha * acc);\n      }\n";
  } else {
    os << "          acc -= a[i][k] * b[k][j];\n"
       << "        b[i][j] = acc / a[i][i];\n      }\n";
    loops(false);
    os << "        write_channel_intel(" << chan(s, "X") << ", b[i][j]);\n";
  }
  os << "  }\n}\n\n";
}

void emit_triangular_module(std::ostringstream& os, const RoutineSpec& s) {
  // As in core::trsv / core::trsm: the rows of op(A)'s triangle arrive in
  // solve order (read_triangular), forward for a lower triangle and
  // backward for an upper one, each row's dependencies and its diagonal
  // in column order. Per row i the module reads b[i] (TRSM: B's row i,
  // times alpha), subtracts every solved x[j], divides by the diagonal
  // (read but unused when it is unit) and writes x[i]. The solution stays
  // on chip: up to TN rows (TRSM: TN x TM).
  const char* t = ctype(s.precision);
  const bool trsv = s.kind == RoutineKind::Trsv;
  const bool lower = (s.uplo == Uplo::Lower) == (s.trans == Transpose::None);
  const bool unit = s.diag == Diag::Unit;
  const char* n = trsv ? "N" : "M";
  const std::string row_i = lower ? "s" : std::string(n) + " - 1 - s";
  const std::string deps = lower ? "int j = 0; j <= i; j++"
                                 : "int j = i; j < " + std::string(n) + "; j++";
  os << "// " << (trsv ? "TRSV" : "TRSM (left)") << ", "
     << (lower ? "lower" : "upper") << " triangle"
     << (s.trans == Transpose::None ? "" : " of A^T") << ", "
     << (unit ? "unit" : "non-unit") << " diagonal: rows arrive in solve "
     << "order\n"
     << "__kernel void " << s.user_name << "(";
  if (trsv) {
    os << "int N) {\n"
       << "  " << t << " x[" << s.tile_rows << "];\n";
  } else {
    os << t << " alpha, int M, int N) {\n"
       << "  " << t << " x[" << s.tile_rows << "][" << s.tile_cols << "];\n"
       << "  " << t << " row[" << s.tile_cols << "];\n";
  }
  os << "  for (int s = 0; s < " << n << "; s++) {\n"
     << "    const int i = " << row_i << ";\n";
  if (trsv) {
    os << "    " << t << " acc = read_channel_intel(" << chan(s, "b")
       << ");\n";
  } else {
    os << "    for (int c = 0; c < N; c++)\n"
       << "      row[c] = alpha * read_channel_intel(" << chan(s, "B")
       << ");\n";
  }
  os << "    " << t << " diag = 1;\n"
     << "    for (" << deps << ") {\n"
     << "      const " << t << " a = read_channel_intel(" << chan(s, "A")
     << ");\n"
     << "      if (j == i) {\n"
     << "        diag = a;\n"
     << "        continue;\n"
     << "      }\n";
  if (trsv) {
    os << "      acc -= a * x[j];\n";
  } else {
    os << "      #pragma unroll " << s.width << "\n"
       << "      for (int c = 0; c < N; c++) row[c] -= a * x[j][c];\n";
  }
  os << "    }\n";
  const char* scale = unit ? "" : " / diag";
  if (trsv) {
    os << "    x[i] = acc" << scale << ";\n"
       << "    write_channel_intel(" << chan(s, "x") << ", x[i]);\n";
  } else {
    os << "    for (int c = 0; c < N; c++) {\n"
       << "      x[i][c] = row[c]" << scale << ";\n"
       << "      write_channel_intel(" << chan(s, "X") << ", x[i][c]);\n"
       << "    }\n";
  }
  os << "  }\n}\n\n";
}

}  // namespace

core::GemvConfig GeneratedDesign::gemv_config() const {
  return core::GemvConfig{spec.trans,     spec.tiling,    spec.width,
                          spec.tile_rows, spec.tile_cols, spec.elem_order};
}

core::GerConfig GeneratedDesign::ger_config() const {
  return core::GerConfig{spec.tiling, spec.width, spec.tile_rows,
                         spec.tile_cols};
}

core::BatchedConfig GeneratedDesign::batched_config() const {
  return core::BatchedConfig{spec.fixed_size};
}

core::GemmConfig GeneratedDesign::gemm_config() const {
  return core::GemmConfig{spec.pe_rows, spec.pe_cols, spec.tile_rows,
                          spec.tile_cols};
}

GeneratedDesign emit(const RoutineSpec& in, const sim::DeviceSpec& dev,
                     bool check_feasibility) {
  const RoutineInfo& info = routine_info(in.kind);
  GeneratedDesign out;
  out.spec = in;
  out.spec.user_name = in.kernel_name();
  const RoutineSpec& spec = out.spec;
  if (spec.fully_unrolled) {
    // A fully-unrolled size-s circuit is equivalent to an s x s grid
    // holding one s x s tile (s^2 parallel MAC lanes, no memory tiles).
    const int s = static_cast<int>(spec.fixed_size);
    out.shape = sim::ModuleShape{spec.kind, spec.precision, 1,
                                 spec.fixed_size, spec.fixed_size, s, s};
    if (check_feasibility) {
      // The grid-size P&R ceilings do not apply to these small circuits;
      // only the resource budget does.
      sim::check_fits(sim::estimate_design(out.shape, dev), dev);
    }
  } else {
    out.shape = sim::ModuleShape{spec.kind, spec.precision, spec.width,
                                 spec.tile_rows, spec.tile_cols,
                                 spec.pe_rows, spec.pe_cols};
    if (check_feasibility && !sim::place_and_route_feasible(out.shape, dev)) {
      throw FitError("generated design for " + spec.user_name +
                     " would fail placement/routing on " +
                     std::string(dev.name));
    }
  }

  std::ostringstream os;
  os << "// " << spec.user_name << ": " << spec.blas_name()
     << " generated by the FBLAS code generator for " << dev.name << "\n"
     << "#pragma OPENCL EXTENSION cl_intel_channels : enable\n\n";

  // One channel and one reader or writer helper kernel per stream.
  const Streams io = streams(spec);
  for (const auto* names : {&io.in, &io.out}) {
    for (const std::string& name : *names) {
      out.channel_names.push_back(chan(spec, name));
      os << "channel " << ctype(spec, name) << " "
         << out.channel_names.back() << " __attribute__((depth("
         << 2 * spec.width << ")));\n";
    }
  }
  os << "\n";
  for (const std::string& name : io.in) {
    out.kernel_names.push_back(emit_helper(os, spec, name, true));
  }
  for (const std::string& name : io.out) {
    out.kernel_names.push_back(emit_helper(os, spec, name, false));
  }

  // Per kind, only the module body is left to choose.
  const RoutineKind k = spec.kind;
  if (spec.fully_unrolled) {
    emit_unrolled_module(os, spec);
  } else if (k == RoutineKind::Gemv) {
    emit_gemv_module(os, spec);
  } else if (k == RoutineKind::Trsv || k == RoutineKind::Trsm) {
    emit_triangular_module(os, spec);
  } else if (info.level == 2) {  // GER, SYR, SYR2
    emit_ger_module(os, spec, io);
  } else if (info.level == 3) {  // GEMM, SYRK, SYR2K
    emit_systolic_module(os, spec, io);
  } else if (k == RoutineKind::Iamax) {
    emit_iamax_module(os, spec);
  } else if (info.circuit == CircuitClass::MapReduce) {
    emit_reduce_module(os, spec);
  } else {
    emit_map_module(os, spec, io);
  }
  out.kernel_names.push_back(spec.user_name);
  out.source = os.str();
  return out;
}

std::string emit_file(const SpecFile& spec, bool check_feasibility) {
  const sim::DeviceSpec& dev = sim::device(spec.device);
  std::ostringstream os;
  os << "// Generated by the FBLAS code generator\n"
     << "// Target device: " << dev.name << "\n"
     << "// Routines: " << spec.routines.size() << "\n\n";
  for (const RoutineSpec& r : spec.routines) {
    os << emit(r, dev, check_feasibility).source << "\n";
  }
  return os.str();
}

}  // namespace fblas::codegen
