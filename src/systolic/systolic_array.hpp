// The paper's 2-D systolic GEMM array (Sec. III-C, Fig. 3): a PR x PC
// grid of processing elements fed by Feed-A modules on the left edge and
// Feed-B modules on the top edge, drained by Drain-C modules at the
// bottom. Every PE has a constant number of data connections (6: a/b/acc
// in, a/b/acc out) independent of the grid size — the property that makes
// the architecture scale where a naive unrolled loop nest would hit
// fan-out limits.
//
// This component is the output-stationary, ratio-1 realization (each PE
// owns one element of the C tile). The core library's `fblas::core::gemm`
// coroutine is the time-multiplexed single-kernel equivalent used at
// scale; tests assert that both agree with the reference BLAS.
//
// The grid is computed by its wavefront in closed form rather than by
// stepping registers: Feed-A(r) injects A(row0+r, t-r) and Feed-B(c)
// injects B(t-c, col0+c) at cycle t, so after r+c forwarding hops PE(r, c)
// MACs operand index j = t - r - c — its accumulator is one dot product
// over ascending j, and the drain chain delivers it to C unchanged. The
// cycle count depends only on the shape (cycles_per_tile), so nothing
// observable needs the cycle-by-cycle registers.
//
// In-grid ABFT (AbftConfig): the grid optionally carries a Huang–Abraham
// checksum row and checksum column — the feeders emit running operand
// sums beside the data, an extra rank of accumulators in the drain chain
// maintains C·e and eᵀ·C per tile — so a corrupted accumulator is
// detected as the tile drains, localized to its PE by the intersecting
// row/column residuals, and (for a single fault per tile) corrected in
// place by replaying that PE's dot product: no rollback, no
// re-execution, and the corrected tile is bit-identical to a fault-free
// run because the replay uses the grid's own accumulation order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/view.hpp"

namespace fblas::systolic {

/// What a processing element keeps across tiles. Its operand registers,
/// valid bits and drain register follow from the wavefront in closed
/// form, and its stationary accumulator lives in the grid's scratch.
struct Pe {
  std::uint64_t macs = 0;    ///< statistics: MACs performed by this PE
  std::uint64_t faults = 0;  ///< ABFT: faults localized to this PE
};

/// In-grid ABFT (Huang–Abraham) for the PE grid: a checksum column fed by
/// Feed-B's running column sums and a checksum row fed by Feed-A's running
/// row sums ride along with each tile, so the drain chain can compare the
/// accumulators against C·e and eᵀ·C the moment the tile drains.
struct AbftConfig {
  bool enabled = false;
  /// Replay-correct a tile whose residuals intersect in exactly one PE
  /// (single fault). Off: localize and report only.
  bool correct_single_faults = true;
  /// Multiplier on the analytic floating-point bound used as the residual
  /// acceptance tolerance (same convention as verify::Options).
  double tolerance_scale = 32.0;
};

/// A one-shot PE-targeted fault (the injector's plan): XOR an exponent
/// bit of the product of MAC number `mac` (0-based, per tile) performed
/// by PE (r, c) during tile `tile` (linear index in the row-major tile
/// sweep of multiply()). If the planned MAC's product is exactly zero the
/// flip is postponed to the PE's next nonzero product; a plan that never
/// reaches a nonzero product does not fire.
struct PeFaultPlan {
  std::int64_t tile = 0;
  int r = 0;
  int c = 0;
  std::int64_t mac = 0;
};

/// One fault event the checksum rank localized (and possibly corrected).
struct LocalizedFault {
  std::int64_t tile_row = -1;  ///< tile index along m (row0 / PR)
  std::int64_t tile_col = -1;  ///< tile index along n (col0 / PC)
  int r = -1;                  ///< victim PE row within the grid
  int c = -1;                  ///< victim PE column within the grid
  double residual = 0.0;       ///< row-checksum residual at detection
  bool corrected = false;
};

/// ABFT outcome of one multiply() (reset at every call).
struct AbftReport {
  std::uint64_t tiles_checked = 0;
  std::uint64_t faults_detected = 0;  ///< tiles with any flagged residual
  std::uint64_t faults_localized = 0; ///< pinned to exactly one PE
  std::uint64_t faults_corrected = 0; ///< fixed in place, no re-execution
  std::uint64_t uncorrectable_tiles = 0;  ///< multi-fault / inconsistent
  std::vector<LocalizedFault> faults;     ///< localized events, tile order
  std::string first_uncorrectable;  ///< diagnosis of the first bad tile
};

template <typename T>
class SystolicArray {
 public:
  SystolicArray(int pe_rows, int pe_cols);

  int pe_rows() const { return pr_; }
  int pe_cols() const { return pc_; }

  /// Data connections per PE (in + out), constant by construction.
  static constexpr int connections_per_pe() { return 6; }

  /// Computes C = A * B (A: m x k, B: k x n) by sweeping PR x PC tiles of
  /// C through the array, with skewed wavefront feeding and a shifted
  /// drain chain. Returns the total simulated cycle count. With ABFT on,
  /// every tile is checked (and single-fault tiles corrected) as it
  /// drains; the outcome is in report().
  std::uint64_t multiply(MatrixView<const T> A, MatrixView<const T> B,
                         MatrixView<T> C);

  /// Cycles one tile takes: skewed pipeline fill + K MAC wavefronts +
  /// drain of PR rows through the column chains. The ABFT checksum rank
  /// adds one extra column fill, one extra row fill and one extra drain
  /// step — a constant 3 cycles, independent of k.
  std::uint64_t cycles_per_tile(std::int64_t k) const {
    return static_cast<std::uint64_t>(k + pr_ - 1 + pc_ - 1 + pr_) +
           (abft_.enabled ? 3u : 0u);
  }

  /// Total MACs performed since construction (across all PEs).
  std::uint64_t total_macs() const;

  /// MACs performed by PE (r, c) — used to assert load balance.
  std::uint64_t pe_macs(int r, int c) const {
    return grid_[static_cast<std::size_t>(r * pc_ + c)].macs;
  }

  // --- In-grid ABFT -------------------------------------------------------
  void set_abft(const AbftConfig& cfg) { abft_ = cfg; }
  const AbftConfig& abft() const { return abft_; }

  /// ABFT outcome of the most recent multiply().
  const AbftReport& report() const { return report_; }

  /// Faults the checksum rank localized to PE (r, c) since construction
  /// (the fault-count analogue of pe_macs).
  std::uint64_t pe_faults(int r, int c) const {
    return grid_[static_cast<std::size_t>(r * pc_ + c)].faults;
  }

  /// Arms a one-shot PE fault for the next multiply(); arm twice to model
  /// a double fault. Plans are cleared when multiply() returns.
  void arm_fault(const PeFaultPlan& plan) { pending_.push_back({plan, false}); }

  /// Armed plans that actually fired during the last multiply().
  std::uint64_t faults_fired() const { return faults_fired_; }

 private:
  struct ArmedFault {
    PeFaultPlan plan;
    bool fired = false;
  };

  /// Returns the number of corrections performed in this tile (each one
  /// costs a k-cycle replay through the checksum rank).
  std::uint64_t run_tile(MatrixView<const T> A, MatrixView<const T> B,
                         MatrixView<T> C, std::int64_t row0,
                         std::int64_t col0, std::int64_t th, std::int64_t tw,
                         std::int64_t k, std::int64_t tile);
  void check_tile(MatrixView<const T> A, MatrixView<const T> B,
                  std::int64_t row0, std::int64_t col0, std::int64_t th,
                  std::int64_t tw, std::int64_t k, std::uint64_t* corrected);

  T& acc(std::int64_t r, std::int64_t c) {
    return acc_[static_cast<std::size_t>(r * pc_ + c)];
  }

  int pr_, pc_;
  std::vector<Pe> grid_;
  std::vector<T> acc_;  ///< PE(r, c)'s accumulator at r * PC + c
  // What the ABFT feeders emit beside the data, per multiply(): Feed-A's
  // running row sums (and magnitudes) for the current tile row, k values,
  // and Feed-B's running column sums for every tile column, k per column.
  std::vector<double> asum_, aabs_, bsum_, babs_;
  AbftConfig abft_;
  AbftReport report_;
  std::vector<ArmedFault> pending_;
  std::uint64_t faults_fired_ = 0;
};

}  // namespace fblas::systolic
