// Level-3 host API lowerings. Commands declare their buffer read/write
// sets, capture the RoutineConfig by value at enqueue time, and carry
// their refblas CPU reference path as the retry machinery's fallback
// plus, when the captured config enables verification, their ABFT
// Huang–Abraham checksum checkers (row/column checksums of the output
// panel, or a residual checksum for the triangular solve).
#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/level3.hpp"
#include "sim/frequency_model.hpp"
#include "verify/abft.hpp"

namespace fblas::host {
namespace {

Uplo flip(Uplo u) { return u == Uplo::Lower ? Uplo::Upper : Uplo::Lower; }
Transpose flip(Transpose t) {
  return t == Transpose::None ? Transpose::Trans : Transpose::None;
}

// Steers an injected silent corruption of an n x n triangular output onto
// the written (`uplo`) triangle: the injector's raw byte draw is folded
// onto a triangle element and the damage lands on that element's last
// (sign/exponent) byte. Without this the draw can fall in the preserved
// opposite triangle, which the routine never writes — damage no checker
// could, or should, detect.
std::uint64_t steer_triangular(Uplo uplo, std::int64_t n, std::uint64_t elem,
                               std::uint64_t raw, std::uint64_t size) {
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::uint64_t tri = un * (un + 1) / 2;
  if (tri == 0 || size == 0) return 0;
  std::uint64_t t = (raw / elem) % tri;
  // Row i of the triangle holds i+1 (Lower) or n-i (Upper) elements.
  std::uint64_t i = 0;
  for (std::uint64_t len = uplo == Uplo::Lower ? 1 : un; t >= len;
       ++i, len = uplo == Uplo::Lower ? len + 1 : len - 1) {
    t -= len;
  }
  const std::uint64_t j = uplo == Uplo::Lower ? t : i + t;
  const std::uint64_t off = (i * un + j) * elem + (elem - 1);
  return off < size ? off : size - 1;
}

// The stored view of an r x c op(X): X itself, or X as c x r when
// transposed.
template <typename T>
MatrixView<const T> op_view(const Buffer<T>& x, Transpose t, std::int64_t r,
                            std::int64_t c) {
  return t == Transpose::None ? x.cmat(r, c) : x.cmat(c, r);
}

// One panel stream of the GEMM module: op(A)-style column segments
// (read_a_gemm) or op(B)-style row segments (read_b_gemm) of `view`.
template <typename T>
struct Panel {
  const char* chan;
  const char* mover;
  MatrixView<const T> view;
  int bank;
  Transpose trans;
};

// The one GEMM-family graph (GEMM, SYRK, SYR2K): a channel and reader per
// column panel, then per row panel; Read-C when beta != 0; the module
// `label` over the panel pairs; and Store-C, which keeps only the `uplo`
// triangle when one is given.
template <typename T, std::size_t R>
void run_gemm_graph(Context& ctx, const RoutineConfig& rc, const char* label,
                    std::int64_t m, std::int64_t n, std::int64_t k, T alpha,
                    T beta, const std::array<Panel<T>, R>& cols,
                    const std::array<Panel<T>, R>& rows, Buffer<T>& c,
                    const Uplo* uplo) {
  const double mhz = sim::gemm_frequency(rc.pe_rows, rc.pe_cols,
                                         PrecisionTraits<T>::value,
                                         ctx.device().spec())
                         .mhz;
  detail::launch(ctx, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
    const core::GemmConfig cfg{rc.pe_rows, rc.pe_cols, rc.gemm_tile_rows,
                               rc.gemm_tile_cols};
    const std::int64_t longest = std::max({m * k, k * n, m * n});
    const std::size_t cap_cols =
        detail::chan_cap(g.mode(), cfg.pe_rows * 4, longest);
    const std::size_t cap_rows =
        detail::chan_cap(g.mode(), cfg.pe_cols * 4, longest);
    std::array<stream::Channel<T>*, R> cc, cr;
    for (std::size_t q = 0; q < R; ++q) {
      cc[q] = &g.channel<T>(cols[q].chan, cap_cols);
    }
    for (std::size_t q = 0; q < R; ++q) {
      cr[q] = &g.channel<T>(rows[q].chan, cap_rows);
    }
    auto& cin = g.channel<T>("Cin", cap_rows);
    auto& out = g.channel<T>("out", cap_rows);
    for (std::size_t q = 0; q < R; ++q) {
      g.spawn(cols[q].mover,
              core::read_a_gemm<T>(cols[q].view, cfg, n, *cc[q],
                                   banks.at(cols[q].bank), cols[q].trans));
    }
    for (std::size_t q = 0; q < R; ++q) {
      g.spawn(rows[q].mover,
              core::read_b_gemm<T>(rows[q].view, cfg, m, *cr[q],
                                   banks.at(rows[q].bank), rows[q].trans));
    }
    const auto sched = core::gemm_c_schedule(cfg);
    stream::DramBank* c_bank = banks.at(c.bank());
    if (beta != T(0)) {
      g.spawn("read_C", stream::read_matrix<T>(c.cmat(m, n), sched, 1,
                                               cfg.pe_cols, cin, c_bank));
    }
    g.spawn(label, core::gemm_pairs<T, R>(cfg, m, n, k, alpha, beta, cc, cr,
                                          cin, out));
    g.spawn("store_C",
            uplo != nullptr
                ? stream::write_matrix_uplo<T>(c.mat(m, n), sched, *uplo,
                                               cfg.pe_cols, out, c_bank)
                : stream::write_matrix<T>(c.mat(m, n), sched, cfg.pe_cols,
                                          out, c_bank));
  });
}

}  // namespace

template <typename T>
Event Context::gemm_async(Transpose ta, Transpose tb, std::int64_t m,
                          std::int64_t n, std::int64_t k, T alpha,
                          const Buffer<T>& a, const Buffer<T>& b, T beta,
                          Buffer<T>& c) {
  Command command;
  command.label = "gemm";
  command.reads = {&a, &b, &c};
  command.writes = {&c};
  command.work = [this, rc = cfg_, ta, tb, m, n, k, alpha, &a, &b, beta,
                  &c] {
    run_gemm_graph<T, 1>(
        *this, rc, "gemm", m, n, k, alpha, beta,
        {{{"A", "read_A", op_view(a, ta, m, k), a.bank(), ta}}},
        {{{"B", "read_B", op_view(b, tb, k, n), b.bank(), tb}}}, c, nullptr);
  };
  command.fallback = [ta, tb, m, n, k, alpha, &a, &b, beta, &c] {
    ref::gemm(ta, tb, alpha, op_view(a, ta, m, k), op_view(b, tb, k, n), beta,
              c.mat(m, n));
  };
  return enqueue(std::move(command), [ta, tb, m, n, k, alpha, &a, &b, beta,
                                      &c] {
    return [chk = verify::gemm_prepare<T>(ta, tb, m, n, k, alpha,
                                          op_view(a, ta, m, k),
                                          op_view(b, tb, k, n), beta,
                                          c.cmat(m, n)),
            m, n, &c](double scale) {
      verify::gemm_check<T>(chk, c.cmat(m, n), scale);
    };
  });
}

template <typename T>
Event Context::syrk_async(Uplo uplo, Transpose trans, std::int64_t n,
                          std::int64_t k, T alpha, const Buffer<T>& a,
                          T beta, Buffer<T>& c) {
  Command command;
  command.label = "syrk";
  command.reads = {&a, &c};
  command.writes = {&c};
  command.work = [this, rc = cfg_, uplo, trans, n, k, alpha, &a, beta, &c] {
    // SYRK is lowered to the generic GEMM module with both panel streams
    // reading the same matrix (the second one transposed) and a
    // triangular Store-C (Sec. VI: specialized routines are implemented
    // in terms of the generic ones).
    const auto av = op_view(a, trans, n, k);
    run_gemm_graph<T, 1>(*this, rc, "gemm", n, n, k, alpha, beta,
                         {{{"A", "read_A", av, a.bank(), trans}}},
                         {{{"At", "read_At", av, a.bank(), flip(trans)}}}, c,
                         &uplo);
  };
  command.fallback = [uplo, trans, n, k, alpha, &a, beta, &c] {
    ref::syrk(uplo, trans, alpha, op_view(a, trans, n, k), beta, c.mat(n, n));
  };
  command.corrupt_steer = [uplo, n](std::uint64_t raw, std::uint64_t size) {
    return steer_triangular(uplo, n, sizeof(T), raw, size);
  };
  return enqueue(std::move(command), [uplo, trans, n, k, alpha, &a, beta,
                                      &c] {
    return [chk = verify::syrk_prepare<T>(uplo, trans, n, k, alpha,
                                          op_view(a, trans, n, k), beta,
                                          c.cmat(n, n)),
            n, &c](double scale) {
      verify::check_rowsums<T>(chk, "syrk", c.cmat(n, n), scale);
    };
  });
}

template <typename T>
Event Context::syr2k_async(Uplo uplo, Transpose trans, std::int64_t n,
                           std::int64_t k, T alpha, const Buffer<T>& a,
                           const Buffer<T>& b, T beta, Buffer<T>& c) {
  Command command;
  command.label = "syr2k";
  command.reads = {&a, &b, &c};
  command.writes = {&c};
  command.work = [this, rc = cfg_, uplo, trans, n, k, alpha, &a, &b, beta,
                  &c] {
    const auto av = op_view(a, trans, n, k), bv = op_view(b, trans, n, k);
    run_gemm_graph<T, 2>(
        *this, rc, "syr2k", n, n, k, alpha, beta,
        {{{"Acol", "read_A", av, a.bank(), trans},
          {"Bcol", "read_B", bv, b.bank(), trans}}},
        {{{"Atrow", "read_At", av, a.bank(), flip(trans)},
          {"Btrow", "read_Bt", bv, b.bank(), flip(trans)}}},
        c, &uplo);
  };
  command.fallback = [uplo, trans, n, k, alpha, &a, &b, beta, &c] {
    ref::syr2k(uplo, trans, alpha, op_view(a, trans, n, k),
               op_view(b, trans, n, k), beta, c.mat(n, n));
  };
  command.corrupt_steer = [uplo, n](std::uint64_t raw, std::uint64_t size) {
    return steer_triangular(uplo, n, sizeof(T), raw, size);
  };
  return enqueue(std::move(command), [uplo, trans, n, k, alpha, &a, &b, beta,
                                      &c] {
    return [chk = verify::syr2k_prepare<T>(uplo, trans, n, k, alpha,
                                           op_view(a, trans, n, k),
                                           op_view(b, trans, n, k), beta,
                                           c.cmat(n, n)),
            n, &c](double scale) {
      verify::check_rowsums<T>(chk, "syr2k", c.cmat(n, n), scale);
    };
  });
}

template <typename T>
Event Context::trsm_async(Side side, Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t m, std::int64_t n, T alpha,
                          const Buffer<T>& a, Buffer<T>& b) {
  Command command;
  command.label = "trsm";
  command.reads = {&a, &b};
  command.writes = {&b};
  command.work = [this, rc = cfg_, side, uplo, trans, diag, m, n, alpha, &a,
                  &b] {
    // Right side: X op(A) = alpha B  <=>  op(A)^T X^T = alpha B^T. The
    // host transposes B into a host buffer, runs the left-side solve there
    // with the opposite transposition, and transposes the result back (the
    // host layer's equivalent of generating a dedicated right-side variant).
    // Either way the solve overwrites its right-hand side row by row.
    const bool left = side == Side::Left;
    const Transpose t = left ? trans : flip(trans);
    const Uplo eff = t == Transpose::None ? uplo : flip(uplo);
    const std::int64_t rows = left ? m : n, cols = left ? n : m;
    auto transpose = [](MatrixView<const T> from, MatrixView<T> to) {
      for (std::int64_t i = 0; i < from.rows(); ++i) {
        for (std::int64_t j = 0; j < from.cols(); ++j) to(j, i) = from(i, j);
      }
    };
    std::vector<T> bt(left ? 0 : static_cast<std::size_t>(m * n));
    const MatrixView<T> x =
        left ? b.mat(m, n) : MatrixView<T>(bt.data(), n, m);
    if (!left) transpose(b.cmat(m, n), x);
    detail::launch<T>(*this, RoutineKind::Trsm, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      const int W = rc.width;
      const std::size_t cap =
          detail::chan_cap(g.mode(), W, rows * std::max(rows, cols));
      auto& ca = g.channel<T>("A", cap);
      auto& cb = g.channel<T>("B", cap);
      auto& out = g.channel<T>("X", cap);
      g.spawn("read_A", core::read_triangular<T>(a.cmat(rows, rows), eff, W,
                                                 ca, banks.at(a.bank()), t));
      g.spawn("read_B", detail::read_rows_solve_order<T>(
                            MatrixView<const T>(x.data(), rows, cols, x.ld()),
                            eff, W, cb, banks.at(b.bank())));
      g.spawn("trsm", core::trsm<T>({eff, diag, W}, rows, cols, alpha, ca, cb,
                                    out));
      g.spawn("write_X", detail::write_rows_solve_order<T>(
                             x, eff, W, out, banks.at(b.bank())));
    });
    if (!left) {
      transpose(MatrixView<const T>(bt.data(), n, m), b.mat(m, n));
    }
  };
  command.fallback = [side, uplo, trans, diag, m, n, alpha, &a, &b] {
    const std::int64_t adim = side == Side::Left ? m : n;
    ref::trsm(side, uplo, trans, diag, alpha, a.cmat(adim, adim),
              b.mat(m, n));
  };
  // Residual check: the solve overwrites B with X, so capture the
  // right-hand-side checksums alpha*(B e) first; afterwards op(A)(X e)
  // must reproduce them.
  return enqueue(std::move(command), [side, uplo, trans, diag, m, n, alpha,
                                      &a, &b] {
    return [chk = verify::trsm_prepare<T>(side, m, n, alpha, b.cmat(m, n)),
            side, uplo, trans, diag, m, n, &a, &b](double scale) {
      const std::int64_t adim = side == Side::Left ? m : n;
      verify::trsm_check<T>(chk, side, uplo, trans, diag, m, n,
                            a.cmat(adim, adim), b.cmat(m, n), scale);
    };
  });
}

#define FBLAS_HOST_L3_INSTANTIATE(T)                                          \
  template Event Context::gemm_async<T>(Transpose, Transpose, std::int64_t,   \
                                        std::int64_t, std::int64_t, T,        \
                                        const Buffer<T>&, const Buffer<T>&,   \
                                        T, Buffer<T>&);                       \
  template Event Context::syrk_async<T>(Uplo, Transpose, std::int64_t,        \
                                        std::int64_t, T, const Buffer<T>&,    \
                                        T, Buffer<T>&);                       \
  template Event Context::syr2k_async<T>(Uplo, Transpose, std::int64_t,       \
                                         std::int64_t, T, const Buffer<T>&,   \
                                         const Buffer<T>&, T, Buffer<T>&);    \
  template Event Context::trsm_async<T>(Side, Uplo, Transpose, Diag,          \
                                        std::int64_t, std::int64_t, T,        \
                                        const Buffer<T>&, Buffer<T>&);

FBLAS_HOST_L3_INSTANTIATE(float)
FBLAS_HOST_L3_INSTANTIATE(double)
#undef FBLAS_HOST_L3_INSTANTIATE

}  // namespace fblas::host
