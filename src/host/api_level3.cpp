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
    const double mhz = sim::gemm_frequency(rc.pe_rows, rc.pe_cols,
                                           PrecisionTraits<T>::value,
                                           dev_->spec())
                           .mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
      const core::GemmConfig cfg{rc.pe_rows, rc.pe_cols, rc.gemm_tile_rows,
                                 rc.gemm_tile_cols};
      auto& ca = g.channel<T>("A", detail::chan_cap(cfg.pe_rows * 4));
      auto& cb = g.channel<T>("B", detail::chan_cap(cfg.pe_cols * 4));
      auto& cc = g.channel<T>("Cin", detail::chan_cap(cfg.pe_cols * 4));
      auto& out = g.channel<T>("out", detail::chan_cap(cfg.pe_cols * 4));
      g.spawn("read_A",
              core::read_a_gemm<T>(a.cmat(ta == Transpose::None ? m : k,
                                          ta == Transpose::None ? k : m),
                                   cfg, n, ca, banks.at(a.bank()), ta));
      g.spawn("read_B",
              core::read_b_gemm<T>(b.cmat(tb == Transpose::None ? k : n,
                                          tb == Transpose::None ? n : k),
                                   cfg, m, cb, banks.at(b.bank()), tb));
      if (beta != T(0)) {
        g.spawn("read_C",
                stream::read_matrix<T>(c.cmat(m, n), core::gemm_c_schedule(cfg),
                                       1, cfg.pe_cols, cc, banks.at(c.bank())));
      }
      g.spawn("gemm",
              core::gemm<T>(cfg, m, n, k, alpha, beta, ca, cb, cc, out));
      g.spawn("store_C",
              stream::write_matrix<T>(c.mat(m, n), core::gemm_c_schedule(cfg),
                                      cfg.pe_cols, out, banks.at(c.bank())));
    });
  };
  command.fallback = [ta, tb, m, n, k, alpha, &a, &b, beta, &c] {
    ref::gemm(ta, tb, alpha,
              a.cmat(ta == Transpose::None ? m : k,
                     ta == Transpose::None ? k : m),
              b.cmat(tb == Transpose::None ? k : n,
                     tb == Transpose::None ? n : k),
              beta, c.mat(m, n));
  };
  return enqueue(std::move(command), [ta, tb, m, n, k, alpha, &a, &b, beta,
                                      &c] {
    return [chk = verify::gemm_prepare<T>(
                ta, tb, m, n, k, alpha,
                a.cmat(ta == Transpose::None ? m : k,
                       ta == Transpose::None ? k : m),
                b.cmat(tb == Transpose::None ? k : n,
                       tb == Transpose::None ? n : k),
                beta, c.cmat(m, n)),
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
    const double mhz = sim::gemm_frequency(rc.pe_rows, rc.pe_cols,
                                           PrecisionTraits<T>::value,
                                           dev_->spec())
                           .mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
      const core::GemmConfig cfg{rc.pe_rows, rc.pe_cols, rc.gemm_tile_rows,
                                 rc.gemm_tile_cols};
      // SYRK is lowered to the generic GEMM module with both panel streams
      // reading the same matrix (the second one transposed) and a
      // triangular Store-C (Sec. VI: specialized routines are implemented
      // in terms of the generic ones).
      const auto a_view = a.cmat(trans == Transpose::None ? n : k,
                                 trans == Transpose::None ? k : n);
      auto& ca = g.channel<T>("A", detail::chan_cap(cfg.pe_rows * 4));
      auto& cb = g.channel<T>("At", detail::chan_cap(cfg.pe_cols * 4));
      auto& cc = g.channel<T>("Cin", detail::chan_cap(cfg.pe_cols * 4));
      auto& out = g.channel<T>("out", detail::chan_cap(cfg.pe_cols * 4));
      g.spawn("read_A", core::read_a_gemm<T>(a_view, cfg, n, ca,
                                             banks.at(a.bank()), trans));
      g.spawn("read_At", core::read_b_gemm<T>(a_view, cfg, n, cb,
                                              banks.at(a.bank()), flip(trans)));
      if (beta != T(0)) {
        g.spawn("read_C",
                stream::read_matrix<T>(c.cmat(n, n), core::gemm_c_schedule(cfg),
                                       1, cfg.pe_cols, cc, banks.at(c.bank())));
      }
      g.spawn("gemm",
              core::gemm<T>(cfg, n, n, k, alpha, beta, ca, cb, cc, out));
      g.spawn("store_C", stream::write_matrix_uplo<T>(
                             c.mat(n, n), core::gemm_c_schedule(cfg), uplo,
                             cfg.pe_cols, out, banks.at(c.bank())));
    });
  };
  command.fallback = [uplo, trans, n, k, alpha, &a, beta, &c] {
    ref::syrk(uplo, trans, alpha,
              a.cmat(trans == Transpose::None ? n : k,
                     trans == Transpose::None ? k : n),
              beta, c.mat(n, n));
  };
  command.corrupt_steer = [uplo, n](std::uint64_t raw, std::uint64_t size) {
    return steer_triangular(uplo, n, sizeof(T), raw, size);
  };
  return enqueue(std::move(command), [uplo, trans, n, k, alpha, &a, beta,
                                      &c] {
    return [chk = verify::syrk_prepare<T>(
                uplo, trans, n, k, alpha,
                a.cmat(trans == Transpose::None ? n : k,
                       trans == Transpose::None ? k : n),
                beta, c.cmat(n, n)),
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
    const double mhz = sim::gemm_frequency(rc.pe_rows, rc.pe_cols,
                                           PrecisionTraits<T>::value,
                                           dev_->spec())
                           .mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
      const core::GemmConfig cfg{rc.pe_rows, rc.pe_cols, rc.gemm_tile_rows,
                                 rc.gemm_tile_cols};
      const auto a_view = a.cmat(trans == Transpose::None ? n : k,
                                 trans == Transpose::None ? k : n);
      const auto b_view = b.cmat(trans == Transpose::None ? n : k,
                                 trans == Transpose::None ? k : n);
      auto& ca = g.channel<T>("Acol", detail::chan_cap(cfg.pe_rows * 4));
      auto& cbc = g.channel<T>("Bcol", detail::chan_cap(cfg.pe_rows * 4));
      auto& cat = g.channel<T>("Atrow", detail::chan_cap(cfg.pe_cols * 4));
      auto& cbt = g.channel<T>("Btrow", detail::chan_cap(cfg.pe_cols * 4));
      auto& cc = g.channel<T>("Cin", detail::chan_cap(cfg.pe_cols * 4));
      auto& out = g.channel<T>("out", detail::chan_cap(cfg.pe_cols * 4));
      g.spawn("read_A", core::read_a_gemm<T>(a_view, cfg, n, ca,
                                             banks.at(a.bank()), trans));
      g.spawn("read_B", core::read_a_gemm<T>(b_view, cfg, n, cbc,
                                             banks.at(b.bank()), trans));
      g.spawn("read_At", core::read_b_gemm<T>(a_view, cfg, n, cat,
                                              banks.at(a.bank()), flip(trans)));
      g.spawn("read_Bt", core::read_b_gemm<T>(b_view, cfg, n, cbt,
                                              banks.at(b.bank()), flip(trans)));
      if (beta != T(0)) {
        g.spawn("read_C",
                stream::read_matrix<T>(c.cmat(n, n), core::gemm_c_schedule(cfg),
                                       1, cfg.pe_cols, cc, banks.at(c.bank())));
      }
      g.spawn("syr2k", core::syr2k<T>(cfg, n, k, alpha, beta, ca, cbc, cat,
                                      cbt, cc, out));
      g.spawn("store_C", stream::write_matrix_uplo<T>(
                             c.mat(n, n), core::gemm_c_schedule(cfg), uplo,
                             cfg.pe_cols, out, banks.at(c.bank())));
    });
  };
  command.fallback = [uplo, trans, n, k, alpha, &a, &b, beta, &c] {
    const std::int64_t rows = trans == Transpose::None ? n : k;
    const std::int64_t cols = trans == Transpose::None ? k : n;
    ref::syr2k(uplo, trans, alpha, a.cmat(rows, cols), b.cmat(rows, cols),
               beta, c.mat(n, n));
  };
  command.corrupt_steer = [uplo, n](std::uint64_t raw, std::uint64_t size) {
    return steer_triangular(uplo, n, sizeof(T), raw, size);
  };
  return enqueue(std::move(command), [uplo, trans, n, k, alpha, &a, &b, beta,
                                      &c] {
    const std::int64_t rows = trans == Transpose::None ? n : k;
    const std::int64_t cols = trans == Transpose::None ? k : n;
    return [chk = verify::syr2k_prepare<T>(uplo, trans, n, k, alpha,
                                           a.cmat(rows, cols),
                                           b.cmat(rows, cols), beta,
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
    if (side == Side::Left) {
      detail::launch<T>(*this, RoutineKind::Trsm, [&](stream::Graph& g,
                                                      detail::BankSet& banks) {
        const int W = rc.width;
        const Uplo eff = trans == Transpose::None ? uplo : flip(uplo);
        const core::TrsmConfig cfg{eff, diag, W};
        auto& ca = g.channel<T>("A", detail::chan_cap(W));
        auto& cb = g.channel<T>("B", detail::chan_cap(W));
        auto& out = g.channel<T>("X", detail::chan_cap(W));
        g.spawn("read_A", core::read_triangular<T>(a.cmat(m, m), eff, W, ca,
                                                   banks.at(a.bank()), trans));
        g.spawn("read_B", detail::read_rows_solve_order<T>(
                              b.cmat(m, n), eff, W, cb, banks.at(b.bank())));
        g.spawn("trsm", core::trsm<T>(cfg, m, n, alpha, ca, cb, out));
        g.spawn("write_X", detail::write_rows_solve_order<T>(
                               b.mat(m, n), eff, W, out, banks.at(b.bank())));
      });
      return;
    }
    // Right side: X op(A) = alpha B  <=>  op(A)^T X^T = alpha B^T. The
    // host transposes B into scratch, runs the left-side solve with the
    // opposite transposition, and transposes the result back (the host
    // layer's equivalent of generating a dedicated right-side variant).
    std::vector<T> bt(static_cast<std::size_t>(m * n));
    {
      auto bv = b.cmat(m, n);
      MatrixView<T> BT(bt.data(), n, m);
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) BT(j, i) = bv(i, j);
      }
    }
    std::vector<T> xt(static_cast<std::size_t>(m * n));
    detail::launch<T>(*this, RoutineKind::Trsm, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      const int W = rc.width;
      const Transpose t2 = flip(trans);
      const Uplo eff = t2 == Transpose::None ? uplo : flip(uplo);
      const core::TrsmConfig cfg{eff, diag, W};
      auto& ca = g.channel<T>("A", detail::chan_cap(W));
      auto& cb = g.channel<T>("B", detail::chan_cap(W));
      auto& out = g.channel<T>("X", detail::chan_cap(W));
      g.spawn("read_A", core::read_triangular<T>(a.cmat(n, n), eff, W, ca,
                                                 banks.at(a.bank()), t2));
      g.spawn("read_B", detail::read_rows_solve_order<T>(
                            MatrixView<const T>(bt.data(), n, m), eff, W, cb,
                            banks.at(b.bank())));
      g.spawn("trsm", core::trsm<T>(cfg, n, m, alpha, ca, cb, out));
      g.spawn("write_X", detail::write_rows_solve_order<T>(
                             MatrixView<T>(xt.data(), n, m), eff, W, out,
                             banks.at(b.bank())));
    });
    {
      auto bv = b.mat(m, n);
      MatrixView<const T> XT(xt.data(), n, m);
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) bv(i, j) = XT(j, i);
      }
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
