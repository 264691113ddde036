// OpenCL kernel emitter: turns a RoutineSpec into (a) Intel-channel-style
// OpenCL source for the module and its interface helper kernels — the
// files the real toolchain would synthesize to a bitstream — and (b) the
// simulator-side module configuration used to run the same design here.
#pragma once

#include <string>
#include <vector>

#include "codegen/routine_spec.hpp"
#include "fblas/batched.hpp"
#include "fblas/level2.hpp"
#include "fblas/level3.hpp"
#include "sim/resource_model.hpp"

namespace fblas::codegen {

struct GeneratedDesign {
  RoutineSpec spec;
  std::string source;                     ///< OpenCL translation unit
  std::vector<std::string> kernel_names;  ///< module + helper kernels
  std::vector<std::string> channel_names;
  sim::ModuleShape shape;                 ///< for the resource model

  // Simulator configurations equivalent to the generated design.
  core::GemvConfig gemv_config() const;
  core::GerConfig ger_config() const;
  core::GemmConfig gemm_config() const;
  core::BatchedConfig batched_config() const;
};

/// Generates one routine. When `check_feasibility` is set (default), the
/// design is validated against the device's resource and P&R limits and
/// FitError is thrown for configurations the paper's toolflow could not
/// place and route.
GeneratedDesign emit(const RoutineSpec& spec, const sim::DeviceSpec& dev,
                     bool check_feasibility = true);

/// Generates the full translation unit for a specification file (header,
/// channel declarations, every routine).
std::string emit_file(const SpecFile& spec, bool check_feasibility = true);

}  // namespace fblas::codegen
