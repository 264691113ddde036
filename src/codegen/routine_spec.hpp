// Routines-specification schema for the code generator (Sec. II-C): a
// JSON file lists the routine instances to generate, with functional
// parameters (precision, transposition, triangle, ...) and non-functional
// parameters (vectorization width, tile sizes, systolic grid).
//
// Example:
//   {
//     "device": "stratix10",
//     "routines": [
//       {"blas": "dot",  "precision": "single", "user_name": "my_sdot",
//        "width": 32},
//       {"blas": "gemv", "precision": "double", "width": 16,
//        "transposed": false, "tiles_by": "rows",
//        "tile_rows": 1024, "tile_cols": 1024},
//       {"blas": "gemm", "precision": "single",
//        "pe_rows": 16, "pe_cols": 16, "tile_rows": 64, "tile_cols": 64}
//     ]
//   }
#pragma once

#include <string>
#include <vector>

#include "common/routines.hpp"
#include "common/types.hpp"
#include "fblas/level2.hpp"
#include "sim/device.hpp"

namespace fblas::codegen {

/// One routine instance to generate.
struct RoutineSpec {
  RoutineKind kind = RoutineKind::Dot;
  Precision precision = Precision::Single;
  std::string user_name;  ///< kernel name; defaults to e.g. "fblas_sdot"

  // Non-functional parameters.
  int width = 16;
  std::int64_t tile_rows = 1024;
  std::int64_t tile_cols = 1024;
  int pe_rows = 8;
  int pe_cols = 8;

  // Functional parameters.
  Transpose trans = Transpose::None;
  core::MatrixTiling tiling = core::MatrixTiling::TilesByRows;
  Order elem_order = Order::RowMajor;  ///< element order within a tile
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;

  /// Fully-unrolled small-size variant (Sec. III-A / Table V): the loops
  /// unroll completely for a compile-time `fixed_size`, and the module
  /// starts a new problem every cycle (GEMM and TRSM only).
  bool fully_unrolled = false;
  std::int64_t fixed_size = 4;

  /// The BLAS-style prefixed name, e.g. "sdot" / "dgemv".
  std::string blas_name() const;
  /// `user_name`, or "fblas_" + blas_name() when it is empty.
  std::string kernel_name() const;
};

/// A module's input and output streams, named the way the host lowering
/// names the channels of the graph it runs (e.g. AXPY {x, y} -> {out}).
/// The emitter declares one channel and one reader or writer helper per
/// stream.
struct Streams {
  std::vector<std::string> in;
  std::vector<std::string> out;
};
Streams streams(const RoutineSpec& spec);

struct SpecFile {
  sim::DeviceId device = sim::DeviceId::Stratix10;
  std::vector<RoutineSpec> routines;
};

/// Parses and validates a specification document. Throws ParseError on
/// schema violations (unknown routine, bad enum value, non-positive
/// width/tiles, TR not a multiple of PR, ...).
SpecFile parse_spec(const std::string& json_text);

/// Serializes a SpecFile back to its JSON form (round-trip support).
std::string spec_to_json(const SpecFile& spec);

}  // namespace fblas::codegen
