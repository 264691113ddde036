#include "systolic/systolic_array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/types.hpp"
#include "verify/policy.hpp"

namespace fblas::systolic {
namespace {

// PE-fault materialization: XOR an exponent bit of the product, so a
// corrupted MAC is many orders of magnitude off and cannot hide under the
// residual tolerance. For operands in (-2, 2) the flipped value stays
// finite (the exponent gains +2^7 / +2^10 without saturating).
template <typename T>
T flip_product(T v) {
  if constexpr (sizeof(T) == 4) {
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    u ^= 0x40000000u;
    std::memcpy(&v, &u, sizeof(u));
  } else {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    u ^= 0x4000000000000000ull;
    std::memcpy(&v, &u, sizeof(u));
  }
  return v;
}

bool flagged(double residual, double tol) {
  return !std::isfinite(residual) || std::abs(residual) > tol;
}

// Lanes i0..i0+L-1's checksum predictions against the other feeder's
// sums: pred[l] = sum over j of x(i0 + l, j) * sum[j] and bound[l] of
// |x(i0 + l, j)| * mag[j], each lane one chain over ascending j from zero,
// L lanes side by side.
template <int L, typename X>
void lane_chains(const X& x, std::int64_t i0, std::int64_t k,
                 const double* sum, const double* mag, double* pred,
                 double* bound) {
  double p[L] = {}, b[L] = {};
  for (std::int64_t j = 0; j < k; ++j) {
    for (int l = 0; l < L; ++l) {
      const double v = static_cast<double>(x(i0 + l, j));
      p[l] += v * sum[j];
      b[l] += std::abs(v) * mag[j];
    }
  }
  std::copy_n(p, L, pred);
  std::copy_n(b, L, bound);
}

// What a feeder emits beside operand index j of a tile: the sum and the
// magnitude sum of its `lanes` values value(j, 0..lanes-1), in lane order.
template <typename F>
void feed_sums(std::int64_t k, std::int64_t lanes, F value, double* sum,
               double* mag) {
  for (std::int64_t j = 0; j < k; ++j) {
    double s = 0.0, m = 0.0;
    for (std::int64_t l = 0; l < lanes; ++l) {
      const double v = static_cast<double>(value(j, l));
      s += v;
      m += std::abs(v);
    }
    sum[j] = s;
    mag[j] = m;
  }
}

// The MACs of PE rows row0.. row0+R-1 x columns col0.. col0+W-1 as one
// register block: each accumulator is its PE's dot product over
// ascending j with the product rounded to T before the add, as in the
// PE; the R x W chains overlap.
template <int R, int W, typename T>
void mac_block(MatrixView<const T> A, MatrixView<const T> B,
               std::int64_t row0, std::int64_t col0, std::int64_t k, T* acc,
               std::int64_t ld) {
  T s[R][W] = {};
  for (std::int64_t j = 0; j < k; ++j) {
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < W; ++c) {
        const T prod = A(row0 + r, j) * B(j, col0 + c);
        s[r][c] += prod;
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < W; ++c) acc[r * ld + c] = s[r][c];
  }
}

// R PE rows across a tile of width tw: four PE columns at a time, then
// the rest one by one.
template <int R, typename T>
void mac_rows(MatrixView<const T> A, MatrixView<const T> B, std::int64_t row0,
              std::int64_t col0, std::int64_t tw, std::int64_t k, T* acc,
              std::int64_t ld) {
  std::int64_t c = 0;
  for (; c + 4 <= tw; c += 4) {
    mac_block<R, 4>(A, B, row0, col0 + c, k, acc + c, ld);
  }
  for (; c < tw; ++c) mac_block<R, 1>(A, B, row0, col0 + c, k, acc + c, ld);
}

}  // namespace

template <typename T>
SystolicArray<T>::SystolicArray(int pe_rows, int pe_cols)
    : pr_(pe_rows), pc_(pe_cols) {
  FBLAS_REQUIRE(pe_rows >= 1 && pe_cols >= 1,
                "systolic grid dimensions must be positive");
  grid_.resize(static_cast<std::size_t>(pr_ * pc_));
  acc_.resize(grid_.size());
}

template <typename T>
std::uint64_t SystolicArray<T>::total_macs() const {
  std::uint64_t total = 0;
  for (const auto& pe : grid_) total += pe.macs;
  return total;
}

// Compares the drained tile against the checksum rank's predictions and
// resolves the residual pattern: intersecting row/column residuals pin a
// single fault to its PE, which is then corrected (when allowed) by
// replaying that PE's dot product in the grid's own accumulation order —
// so a corrected tile is bit-identical to a fault-free run. Any other
// flagged pattern (>=2 rows or columns, or inconsistent residuals) is a
// multi-fault tile: recorded uncorrectable, for the host to reject.
// The feeders' running sums (asum_/aabs_ for this tile row, bsum_/babs_
// for this tile column) were summed by multiply(); checksum arithmetic is
// double regardless of the stream precision.
template <typename T>
void SystolicArray<T>::check_tile(MatrixView<const T> A, MatrixView<const T> B,
                                  std::int64_t row0, std::int64_t col0,
                                  std::int64_t th, std::int64_t tw,
                                  std::int64_t k, std::uint64_t* corrected) {
  ++report_.tiles_checked;
  const std::int64_t ti = row0 / pr_, tj = col0 / pc_;
  // One checksum direction: lane i's accumulators (over `others` PEs)
  // against the prediction from the other feeder's sums, four lanes' chains
  // per pass (lane_chains), flagged in lane order. Only the last flagged
  // lane is needed to resolve the pattern.
  struct Flags {
    int count = 0, at = -1;
    double res = 0.0, tol = 0.0;
  };
  const auto scan = [&](std::int64_t lanes, std::int64_t others, auto x,
                        auto lane_acc, const double* sum, const double* mag) {
    Flags f;
    for (std::int64_t i0 = 0; i0 < lanes; i0 += 4) {
      const std::int64_t nl = std::min<std::int64_t>(4, lanes - i0);
      double pred[4], bound[4];
      if (nl == 4) {
        lane_chains<4>(x, i0, k, sum, mag, pred, bound);
      } else {
        for (std::int64_t l = 0; l < nl; ++l) {
          lane_chains<1>(x, i0 + l, k, sum, mag, pred + l, bound + l);
        }
      }
      for (std::int64_t l = 0; l < nl; ++l) {
        const std::int64_t i = i0 + l;
        double meas = 0.0;
        for (std::int64_t o = 0; o < others; ++o) {
          meas += static_cast<double>(lane_acc(i, o));
        }
        const double tol =
            verify::rel_bound<T>(k * others, abft_.tolerance_scale) * bound[l];
        if (flagged(meas - pred[l], tol)) {
          f = {f.count + 1, static_cast<int>(i), meas - pred[l], tol};
        }
      }
    }
    return f;
  };
  // Feed-B's column sums drive the checksum COLUMN (per-row sums C·e),
  // Feed-A's row sums the checksum ROW (eᵀ·C).
  const Flags row = scan(
      th, tw, [&](std::int64_t r, std::int64_t j) { return A(row0 + r, j); },
      [&](std::int64_t r, std::int64_t c) { return acc(r, c); },
      bsum_.data() + tj * k, babs_.data() + tj * k);
  const Flags col = scan(
      tw, th, [&](std::int64_t c, std::int64_t j) { return B(j, col0 + c); },
      [&](std::int64_t c, std::int64_t r) { return acc(r, c); },
      asum_.data(), aabs_.data());
  if (row.count == 0 && col.count == 0) return;  // clean tile

  ++report_.faults_detected;
  auto uncorrectable = [&](const std::string& why) {
    ++report_.uncorrectable_tiles;
    if (report_.first_uncorrectable.empty()) {
      std::ostringstream os;
      os << "tile (" << ti << ", " << tj << "): " << why << " ("
         << row.count << " row residual(s), " << col.count
         << " column residual(s))";
      report_.first_uncorrectable = os.str();
    }
  };
  if (row.count != 1 || col.count != 1) {
    uncorrectable("residuals do not intersect in one PE — multiple faults");
    return;
  }
  // A single fault produces the SAME delta in its row and column sums;
  // disagreeing residuals mean two faults conspired into one row and one
  // column, which a single replay could not explain.
  const bool consistent =
      std::isfinite(row.res) && std::isfinite(col.res) &&
      std::abs(row.res - col.res) <=
          row.tol + col.tol +
              1e-6 * std::max(std::abs(row.res), std::abs(col.res));
  if (!consistent) {
    uncorrectable("row/column residuals disagree — masked multiple faults");
    return;
  }
  ++report_.faults_localized;
  Pe& victim = grid_[static_cast<std::size_t>(row.at * pc_ + col.at)];
  ++victim.faults;
  LocalizedFault lf;
  lf.tile_row = ti;
  lf.tile_col = tj;
  lf.r = row.at;
  lf.c = col.at;
  lf.residual = row.res;
  if (abft_.correct_single_faults) {
    // Replay the victim's dot product in the PE's own accumulation order
    // (ascending j, precision T): the corrected accumulator is bit-equal
    // to what a fault-free pass would have produced.
    T replay = T(0);
    for (std::int64_t j = 0; j < k; ++j) {
      replay += A(row0 + row.at, j) * B(j, col0 + col.at);
    }
    const double delta = static_cast<double>(acc(row.at, col.at)) -
                         static_cast<double>(replay);
    acc(row.at, col.at) = replay;
    // The replay must explain the residuals it was blamed for; if not,
    // the localization was a coincidence of several faults.
    if (flagged(row.res - delta, row.tol) ||
        flagged(col.res - delta, col.tol)) {
      --report_.faults_localized;
      --victim.faults;
      uncorrectable("replayed correction does not explain the residuals");
      return;
    }
    lf.corrected = true;
    ++report_.faults_corrected;
    ++*corrected;
  }
  report_.faults.push_back(lf);
}

template <typename T>
std::uint64_t SystolicArray<T>::run_tile(MatrixView<const T> A,
                                         MatrixView<const T> B,
                                         MatrixView<T> C, std::int64_t row0,
                                         std::int64_t col0, std::int64_t th,
                                         std::int64_t tw, std::int64_t k,
                                         std::int64_t tile) {
  // ---- Compute phase: the skewed wavefronts in closed form -----------
  // PE(r, c) MACs operand index j = t - r - c at cycle t, so each active
  // PE (r < th, c < tw) accumulates its dot product in ascending j; PEs
  // outside a ragged tile get no operands.
  std::int64_t r0 = 0;
  for (; r0 + 2 <= th; r0 += 2) {
    mac_rows<2>(A, B, row0 + r0, col0, tw, k, &acc(r0, 0), pc_);
  }
  if (r0 < th) mac_rows<1>(A, B, row0 + r0, col0, tw, k, &acc(r0, 0), pc_);
  // A PE with an armed plan for this tile redoes its dot product MAC by
  // MAC, checking its plans in armed order: a plan fires at the first
  // MAC at or after plan.mac whose product is nonzero (a flipped zero
  // would leave no trace), and never if no such product is left.
  const auto targets = [&](const PeFaultPlan& p) {
    return p.tile == tile && p.r >= 0 && p.r < th && p.c >= 0 && p.c < tw;
  };
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    const PeFaultPlan& plan = it->plan;
    const auto same_pe = [&](const ArmedFault& o) {
      return targets(o.plan) && o.plan.r == plan.r && o.plan.c == plan.c;
    };
    if (!targets(plan) || std::any_of(pending_.begin(), it, same_pe)) {
      continue;  // not this tile's, or its PE already redone
    }
    T sum = T(0);
    for (std::int64_t j = 0; j < k; ++j) {
      T prod = A(row0 + plan.r, j) * B(j, col0 + plan.c);
      for (auto f = it; f != pending_.end(); ++f) {
        if (!f->fired && same_pe(*f) &&
            static_cast<std::uint64_t>(j) >=
                static_cast<std::uint64_t>(f->plan.mac) &&
            prod != T(0)) {
          prod = flip_product(prod);
          f->fired = true;
          ++faults_fired_;
        }
      }
      sum += prod;
    }
    acc(plan.r, plan.c) = sum;
  }
  // ---- Checksum rank: detect / localize / correct before the drain ----
  // Architecturally the comparison happens in the extra accumulator rank
  // as the tile drains; checking the (still output-stationary) ACCs here
  // is the same dataflow.
  std::uint64_t corrected = 0;
  if (abft_.enabled) check_tile(A, B, row0, col0, th, tw, k, &corrected);
  // ---- Drain phase: the column chains deliver every accumulator -------
  for (std::int64_t r = 0; r < th; ++r) {
    std::copy_n(&acc(r, 0), tw, &C(row0 + r, col0));
    for (std::int64_t c = 0; c < tw; ++c) grid_[r * pc_ + c].macs += k;
  }
  return corrected;
}

template <typename T>
std::uint64_t SystolicArray<T>::multiply(MatrixView<const T> A,
                                         MatrixView<const T> B,
                                         MatrixView<T> C) {
  const std::int64_t m = A.rows(), k = A.cols(), n = B.cols();
  FBLAS_REQUIRE(B.rows() == k && C.rows() == m && C.cols() == n,
                "systolic multiply: shape mismatch");
  report_ = AbftReport{};
  faults_fired_ = 0;
  // Feed-B's running column sums depend only on the tile column, Feed-A's
  // row sums only on the tile row: each is summed once per multiply.
  if (abft_.enabled) {
    bsum_.resize(static_cast<std::size_t>((n + pc_ - 1) / pc_ * k));
    babs_.resize(bsum_.size());
    asum_.resize(static_cast<std::size_t>(k));
    aabs_.resize(asum_.size());
    for (std::int64_t col0 = 0; col0 < n; col0 += pc_) {
      feed_sums(k, std::min<std::int64_t>(pc_, n - col0),
                [&](std::int64_t j, std::int64_t c) { return B(j, col0 + c); },
                bsum_.data() + col0 / pc_ * k, babs_.data() + col0 / pc_ * k);
    }
  }
  std::uint64_t cycles = 0;
  std::int64_t tile = 0;
  for (std::int64_t row0 = 0; row0 < m; row0 += pr_) {
    const std::int64_t th = std::min<std::int64_t>(pr_, m - row0);
    if (abft_.enabled) {
      feed_sums(k, th,
                [&](std::int64_t j, std::int64_t r) { return A(row0 + r, j); },
                asum_.data(), aabs_.data());
    }
    for (std::int64_t col0 = 0; col0 < n; col0 += pc_) {
      const std::int64_t tw = std::min<std::int64_t>(pc_, n - col0);
      const std::uint64_t corrected =
          run_tile(A, B, C, row0, col0, th, tw, k, tile);
      // A correction replays the victim's k operand pairs through the
      // checksum rank while the next tile fills — k extra cycles, far
      // cheaper than the full-tile rollback + re-execution it replaces.
      cycles += cycles_per_tile(k) + corrected * static_cast<std::uint64_t>(k);
      ++tile;
    }
  }
  pending_.clear();
  return cycles;
}

template class SystolicArray<float>;
template class SystolicArray<double>;

}  // namespace fblas::systolic
