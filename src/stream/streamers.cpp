#include "stream/streamers.hpp"

namespace fblas::stream {

TileWalker::TileWalker(std::int64_t rows, std::int64_t cols,
                       TileSchedule sched)
    : rows_(rows), cols_(cols), s_(sched) {
  FBLAS_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  FBLAS_REQUIRE(s_.tile_rows > 0 && s_.tile_cols > 0,
                "tile sizes must be positive");
  n_trow_ = ceil_div(rows_, s_.tile_rows);
  n_tcol_ = ceil_div(cols_, s_.tile_cols);
  done_ = rows_ == 0 || cols_ == 0;
}

void TileWalker::reset() {
  ti_ = tj_ = ei_ = ej_ = 0;
  done_ = rows_ == 0 || cols_ == 0;
}

std::int64_t TileWalker::run(std::int64_t max, std::int64_t& row,
                             std::int64_t& col) {
  if (done_ || max <= 0) return 0;
  // Extent of the current (clamped) tile.
  const std::int64_t h = std::min(s_.tile_rows, rows_ - ti_ * s_.tile_rows);
  const std::int64_t w = std::min(s_.tile_cols, cols_ - tj_ * s_.tile_cols);
  row = ti_ * s_.tile_rows + ei_;
  col = tj_ * s_.tile_cols + ej_;
  // Advance the element cursor within the tile, at most to the end of the
  // current tile row (row-major elements) or column (column-major).
  std::int64_t len = 0;
  if (s_.elem_order == Order::RowMajor) {
    len = std::min(max, w - ej_);
    if ((ej_ += len) == w) {
      ej_ = 0;
      if (++ei_ == h) ei_ = 0;
    }
  } else {
    len = std::min(max, h - ei_);
    if ((ei_ += len) == h) {
      ei_ = 0;
      if (++ej_ == w) ej_ = 0;
    }
  }
  if (ei_ == 0 && ej_ == 0) {
    // Tile finished: advance the tile cursor.
    if (s_.tile_order == Order::RowMajor) {
      if (++tj_ == n_tcol_) {
        tj_ = 0;
        if (++ti_ == n_trow_) done_ = true;
      }
    } else {
      if (++ti_ == n_trow_) {
        ti_ = 0;
        if (++tj_ == n_tcol_) done_ = true;
      }
    }
  }
  return len;
}

}  // namespace fblas::stream
