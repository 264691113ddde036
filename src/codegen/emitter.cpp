#include "codegen/emitter.hpp"

#include <sstream>

namespace fblas::codegen {
namespace {

const char* ctype(Precision p) {
  return p == Precision::Single ? "float" : "double";
}

std::string chan(const RoutineSpec& s, const std::string& stream) {
  return s.user_name + "_ch_" + stream;
}

/// The helper kernel that moves one stream between DRAM and its channel;
/// returns its name.
std::string emit_helper(std::ostringstream& os, const RoutineSpec& s,
                        const std::string& stream, bool input) {
  const char* t = ctype(s.precision);
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
  const char* t = ctype(s.precision);
  const bool by_rows = s.tiling == core::MatrixTiling::TilesByRows;
  os << "// GEMV variant: A " << (s.trans == Transpose::Trans ? "^T " : "")
     << "in tiles by " << (by_rows ? "rows" : "columns") << ", TN="
     << s.tile_rows << ", TM=" << s.tile_cols << "\n"
     << "__kernel void " << s.user_name << "(" << t << " alpha, " << t
     << " beta, int N, int M) {\n"
     << "  " << t << " local_x[" << (by_rows ? s.tile_cols : s.tile_cols)
     << "];\n"
     << "  " << t << " local_y[" << s.tile_rows << "];\n"
     << "  for (int ti = 0; ti < N / " << s.tile_rows << "; ti++) {\n"
     << "    for (int tj = 0; tj < M / " << s.tile_cols << "; tj++) {\n"
     << "      for (int i = 0; i < " << s.tile_rows << "; i++) {\n"
     << "        " << t << " acc = 0;\n"
     << "        #pragma unroll " << s.width << "\n"
     << "        for (int j = 0; j < " << s.tile_cols << "; j++)\n"
     << "          acc += read_channel_intel(" << chan(s, "A")
     << ") * local_x[j];\n"
     << "        local_y[i] += alpha * acc;\n"
     << "      }\n    }\n"
     << "    // push the finished y block\n"
     << "    for (int i = 0; i < " << s.tile_rows << "; i++)\n"
     << "      write_channel_intel(" << chan(s, "out") << ", local_y[i]);\n"
     << "  }\n}\n\n";
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

void emit_systolic_module(std::ostringstream& os, const RoutineSpec& s) {
  const char* t = ctype(s.precision);
  os << "// Systolic GEMM: " << s.pe_rows << "x" << s.pe_cols
     << " PE grid, compute tile " << s.tile_rows << "x" << s.tile_cols
     << " (single-kernel formulation with shift registers)\n"
     << t << " pe(" << t << " a, " << t << " b, " << t << " *acc) {\n"
     << "  *acc += a * b;\n  return *acc;\n}\n\n"
     << "__kernel void " << s.user_name << "(int N, int M, int K) {\n"
     << "  " << t << " acc[" << s.tile_rows << "][" << s.tile_cols << "];\n"
     << "  for (int k = 0; k < K; k++) {\n"
     << "    " << t << " a_reg[" << s.pe_rows << "], b_reg[" << s.pe_cols
     << "];\n"
     << "    #pragma unroll\n"
     << "    for (int r = 0; r < " << s.pe_rows << "; r++)\n"
     << "      #pragma unroll\n"
     << "      for (int c = 0; c < " << s.pe_cols << "; c++)\n"
     << "        pe(a_reg[r], b_reg[c], &acc[r][c]);\n"
     << "  }\n"
     << "  // drain chain: " << s.pe_cols << " results per cycle\n"
     << "}\n\n";
}

void emit_unrolled_module(std::ostringstream& os, const RoutineSpec& s) {
  const char* t = ctype(s.precision);
  const std::int64_t sz = s.fixed_size;
  os << "// Fully-unrolled batched " << (s.kind == RoutineKind::Gemm
                                             ? "GEMM"
                                             : "TRSM (left, lower)")
     << " of fixed size " << sz
     << ": a new problem enters every clock cycle (Table V design)\n"
     << "__kernel void " << s.user_name << "(" << t
     << " alpha, int batch) {\n"
     << "  for (int inv = 0; inv < batch; inv++) {\n"
     << "    " << t << " a[" << sz << "][" << sz << "], b[" << sz << "]["
     << sz << "];\n"
     << "    #pragma unroll\n"
     << "    for (int i = 0; i < " << sz << "; i++)\n"
     << "      #pragma unroll\n"
     << "      for (int j = 0; j < " << sz << "; j++)\n";
  if (s.kind == RoutineKind::Gemm) {
    os << "        { " << t << " acc = 0;\n"
       << "          #pragma unroll\n"
       << "          for (int k = 0; k < " << sz << "; k++)\n"
       << "            acc += a[i][k] * b[k][j];\n"
       << "          write_channel_intel(" << chan(s, "C")
       << ", alpha * acc); }\n";
  } else {
    os << "        { /* fully-unrolled forward substitution row i */ }\n";
  }
  os << "  }\n}\n\n";
}

void emit_triangular_module(std::ostringstream& os, const RoutineSpec& s) {
  const char* t = ctype(s.precision);
  os << "// " << (s.kind == RoutineKind::Trsv ? "TRSV" : "TRSM") << ", "
     << (s.uplo == Uplo::Lower ? "lower" : "upper") << " triangle, "
     << (s.diag == Diag::Unit ? "unit" : "non-unit") << " diagonal\n"
     << "__kernel void " << s.user_name << "(int N) {\n"
     << "  " << t << " x[/* progressive solution buffer */ 1];\n"
     << "  // rows arrive in solve order through "
     << chan(s, "A") << "\n"
     << "}\n\n";
}

}  // namespace

core::Level1Config GeneratedDesign::level1_config() const {
  return core::Level1Config{spec.width};
}

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

GeneratedDesign emit(const RoutineSpec& spec, const sim::DeviceSpec& dev,
                     bool check_feasibility) {
  const RoutineInfo& info = routine_info(spec.kind);
  GeneratedDesign out;
  out.spec = spec;
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
      os << "channel " << ctype(spec.precision) << " "
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
    emit_systolic_module(os, spec);
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
