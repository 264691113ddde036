// Generic design runner: executes any generated Level-1 design in the
// streaming simulator, closing the loop from JSON specification to
// numerical result. This is the simulator-side equivalent of launching
// the generated OpenCL kernels through the host runtime: the routine
// kind and the non-functional parameters come from the GeneratedDesign,
// and the graph has one channel per stream of codegen::streams.
#pragma once

#include <cstdint>
#include <vector>

#include "codegen/emitter.hpp"
#include "stream/scheduler.hpp"

namespace fblas::codegen {

/// Inputs for a Level-1 run. Unused operands may stay empty (e.g. y for
/// SCAL); scalar operands default to the values shown.
struct Level1Inputs {
  std::vector<double> x;
  std::vector<double> y;
  double alpha = 1.0;
  /// Givens parameters for ROT (c, s); H for ROTM is built from flag 0.
  double c = 1.0, s = 0.0;
};

/// Outputs of a Level-1 run; which fields are filled depends on the
/// routine class (map routines fill the vectors, reductions the scalar,
/// IAMAX the index).
struct Level1Result {
  std::vector<double> out_x;
  std::vector<double> out_y;
  double scalar = 0.0;
  std::int64_t index = -1;
  std::uint64_t cycles = 0;
};

/// Runs the design on the given inputs. Throws ConfigError when the
/// design is not a Level-1 routine.
Level1Result run_level1(const GeneratedDesign& design, stream::Mode mode,
                        const Level1Inputs& inputs);

}  // namespace fblas::codegen
