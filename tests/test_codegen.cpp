// Code generator tests: JSON parser, routine-spec schema, OpenCL
// emission, feasibility gating, the emitted channels against the graphs
// the host runs, and the generated-config -> simulator round trip (a
// generated GEMV design runs and matches the oracle).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <regex>
#include <sstream>
#include <tuple>

#include "codegen/emitter.hpp"
#include "codegen/json.hpp"
#include "codegen/routine_spec.hpp"
#include "common/workload.hpp"
#include "host/context.hpp"
#include "refblas/level2.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::codegen {
namespace {

// ---- JSON parser -------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
}

TEST(Json, ParsesNested) {
  const auto j = Json::parse(R"({
    "a": [1, 2, {"b": true}],
    "c": {"d": null},
    "e": "x"
  })");
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_EQ(j.at("a").at(2).at("b").as_bool(), true);
  EXPECT_TRUE(j.at("c").at("d").is_null());
  EXPECT_TRUE(j.contains("e"));
  EXPECT_FALSE(j.contains("zz"));
  EXPECT_TRUE(j.get("zz").is_null());
}

TEST(Json, UnicodeEscapeBasicLatin) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_THROW(Json::parse("\"\\u00e9\""), ParseError);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": [1, 2\n}");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), ParseError);
  EXPECT_THROW(Json::parse("[1 2]"), ParseError);
  EXPECT_THROW(Json::parse("12x"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
}

TEST(Json, TypeMismatchesThrow) {
  const auto j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.as_string(), ConfigError);
  EXPECT_THROW(j.at(0), ConfigError);
  EXPECT_THROW(j.at("missing"), ConfigError);
  EXPECT_THROW(Json::parse("1.5").as_int(), ConfigError);
}

TEST(Json, DumpRoundTrips) {
  const std::string text = R"({"a":[1,2.5,"s"],"b":{"c":true,"d":null}})";
  const auto j = Json::parse(text);
  const auto j2 = Json::parse(j.dump());
  EXPECT_EQ(j2.at("a").at(1).as_number(), 2.5);
  EXPECT_EQ(j2.at("b").at("c").as_bool(), true);
  // Pretty dump also parses back.
  const auto j3 = Json::parse(j.dump(2));
  EXPECT_EQ(j3.at("a").size(), 3u);
}

// ---- Spec parsing --------------------------------------------------------

constexpr const char* kSpec = R"({
  "device": "stratix10",
  "routines": [
    {"blas": "dot", "precision": "single", "user_name": "my_sdot",
     "width": 32},
    {"blas": "gemv", "precision": "double", "width": 16,
     "transposed": true, "tiles_by": "cols",
     "tile_rows": 512, "tile_cols": 256},
    {"blas": "gemm", "precision": "single",
     "pe_rows": 16, "pe_cols": 16, "tile_rows": 64, "tile_cols": 64},
    {"blas": "trsv", "uplo": "upper", "diag": "unit"}
  ]
})";

TEST(Spec, ParsesAllFields) {
  const auto spec = parse_spec(kSpec);
  EXPECT_EQ(spec.device, sim::DeviceId::Stratix10);
  ASSERT_EQ(spec.routines.size(), 4u);
  const auto& dot = spec.routines[0];
  EXPECT_EQ(dot.kind, RoutineKind::Dot);
  EXPECT_EQ(dot.user_name, "my_sdot");
  EXPECT_EQ(dot.width, 32);
  EXPECT_EQ(dot.blas_name(), "sdot");
  const auto& gemv = spec.routines[1];
  EXPECT_EQ(gemv.precision, Precision::Double);
  EXPECT_EQ(gemv.trans, Transpose::Trans);
  EXPECT_EQ(gemv.tiling, core::MatrixTiling::TilesByCols);
  EXPECT_EQ(gemv.tile_rows, 512);
  EXPECT_EQ(gemv.blas_name(), "dgemv");
  EXPECT_EQ(gemv.user_name, "fblas_dgemv");  // default name
  const auto& trsv = spec.routines[3];
  EXPECT_EQ(trsv.uplo, Uplo::Upper);
  EXPECT_EQ(trsv.diag, Diag::Unit);
}

TEST(Spec, SchemaViolations) {
  EXPECT_THROW(parse_spec("[]"), ParseError);
  EXPECT_THROW(parse_spec("{\"routines\": []}"), ParseError);
  EXPECT_THROW(parse_spec("{\"routines\": [{\"width\": 4}]}"), ParseError);
  EXPECT_THROW(parse_spec(R"({"routines": [{"blas": "fft"}]})"), ParseError);
  EXPECT_THROW(parse_spec(R"({"routines": [{"blas": "dot", "width": 0}]})"),
               ParseError);
  EXPECT_THROW(
      parse_spec(R"({"routines": [{"blas": "dot"}], "device": "virtex"})"),
      ParseError);
  EXPECT_THROW(parse_spec(R"({"routines":
      [{"blas": "gemm", "pe_rows": 4, "pe_cols": 4,
        "tile_rows": 10, "tile_cols": 8}]})"),
               ParseError);
  EXPECT_THROW(
      parse_spec(R"({"routines": [{"blas": "gemv", "tiles_by": "diag"}]})"),
      ParseError);
}

TEST(Spec, RoundTripThroughJson) {
  const auto spec = parse_spec(kSpec);
  const auto spec2 = parse_spec(spec_to_json(spec));
  ASSERT_EQ(spec2.routines.size(), spec.routines.size());
  EXPECT_EQ(spec2.routines[1].tile_rows, spec.routines[1].tile_rows);
  EXPECT_EQ(spec2.routines[1].trans, spec.routines[1].trans);
  EXPECT_EQ(spec2.routines[3].uplo, spec.routines[3].uplo);
}

// ---- Emission -------------------------------------------------------------

TEST(Emitter, DotKernelStructure) {
  RoutineSpec s;
  s.kind = RoutineKind::Dot;
  s.width = 32;
  s.user_name = "my_sdot";
  const auto design = emit(s, sim::stratix10());
  EXPECT_NE(design.source.find("cl_intel_channels"), std::string::npos);
  EXPECT_NE(design.source.find("__kernel void my_sdot(int N)"),
            std::string::npos);
  EXPECT_NE(design.source.find("#pragma unroll"), std::string::npos);
  EXPECT_NE(design.source.find("i < 32"), std::string::npos);
  EXPECT_NE(design.source.find("read_channel_intel(my_sdot_ch_x)"),
            std::string::npos);
  // Helper kernels for both inputs and the result.
  EXPECT_NE(design.source.find("my_sdot_read_x"), std::string::npos);
  EXPECT_NE(design.source.find("my_sdot_read_y"), std::string::npos);
  EXPECT_NE(design.source.find("my_sdot_write_res"), std::string::npos);
  EXPECT_EQ(design.kernel_names.back(), "my_sdot");
  EXPECT_EQ(design.level1_config().width, 32);
}

TEST(Emitter, DoublePrecisionUsesDoubleType) {
  RoutineSpec s;
  s.kind = RoutineKind::Axpy;
  s.precision = Precision::Double;
  s.user_name = "my_daxpy";
  const auto design = emit(s, sim::stratix10());
  EXPECT_NE(design.source.find("double x = read_channel_intel"),
            std::string::npos);
  EXPECT_EQ(design.source.find("float x ="), std::string::npos);
}

TEST(Emitter, GemvCarriesTileSizes) {
  RoutineSpec s;
  s.kind = RoutineKind::Gemv;
  s.width = 16;
  s.tile_rows = 128;
  s.tile_cols = 64;
  s.user_name = "g";
  const auto design = emit(s, sim::stratix10());
  EXPECT_NE(design.source.find("TN=128"), std::string::npos);
  EXPECT_NE(design.source.find("#pragma unroll 16"), std::string::npos);
  const auto cfg = design.gemv_config();
  EXPECT_EQ(cfg.tile_rows, 128);
  EXPECT_EQ(cfg.tile_cols, 64);
}

TEST(Emitter, SystolicGemmStructure) {
  RoutineSpec s;
  s.kind = RoutineKind::Gemm;
  s.pe_rows = 8;
  s.pe_cols = 8;
  s.tile_rows = 32;
  s.tile_cols = 32;
  s.user_name = "mm";
  const auto design = emit(s, sim::stratix10());
  EXPECT_NE(design.source.find("8x8 PE grid"), std::string::npos);
  EXPECT_NE(design.source.find("drain chain"), std::string::npos);
  const auto cfg = design.gemm_config();
  EXPECT_EQ(cfg.pe_rows, 8);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Emitter, InfeasibleDesignsRejected) {
  // DDOT at W=256 fails routing (Sec. VI-B).
  RoutineSpec s;
  s.kind = RoutineKind::Dot;
  s.precision = Precision::Double;
  s.width = 256;
  EXPECT_THROW(emit(s, sim::stratix10()), FitError);
  EXPECT_NO_THROW(emit(s, sim::stratix10(), /*check_feasibility=*/false));
  s.width = 128;
  EXPECT_NO_THROW(emit(s, sim::stratix10()));
}

TEST(Emitter, FileEmissionCoversAllRoutines) {
  const auto spec = parse_spec(kSpec);
  const auto src = emit_file(spec);
  EXPECT_NE(src.find("my_sdot"), std::string::npos);
  EXPECT_NE(src.find("fblas_dgemv"), std::string::npos);
  EXPECT_NE(src.find("fblas_sgemm"), std::string::npos);
  EXPECT_NE(src.find("fblas_strsv"), std::string::npos);
  EXPECT_NE(src.find("Stratix 10"), std::string::npos);
}

TEST(Spec, FullyUnrolledFields) {
  const auto spec = parse_spec(R"({"routines": [
    {"blas": "gemm", "fully_unrolled": true, "fixed_size": 4,
     "user_name": "mm4"}]})");
  EXPECT_TRUE(spec.routines[0].fully_unrolled);
  EXPECT_EQ(spec.routines[0].fixed_size, 4);
  // Round trip keeps the fields.
  const auto spec2 = parse_spec(spec_to_json(spec));
  EXPECT_TRUE(spec2.routines[0].fully_unrolled);
  EXPECT_EQ(spec2.routines[0].fixed_size, 4);
  // Only GEMM/TRSM support it; sizes are capped.
  EXPECT_THROW(parse_spec(R"({"routines": [
    {"blas": "dot", "fully_unrolled": true}]})"),
               ParseError);
  EXPECT_THROW(parse_spec(R"({"routines": [
    {"blas": "gemm", "fully_unrolled": true, "fixed_size": 64}]})"),
               ParseError);
}

TEST(Emitter, FullyUnrolledGemmKernel) {
  RoutineSpec s;
  s.kind = RoutineKind::Gemm;
  s.fully_unrolled = true;
  s.fixed_size = 4;
  s.user_name = "mm4";
  const auto design = emit(s, sim::stratix10());
  EXPECT_NE(design.source.find("Fully-unrolled batched GEMM"),
            std::string::npos);
  EXPECT_NE(design.source.find("new problem enters every clock cycle"),
            std::string::npos);
  EXPECT_NE(design.source.find("k < 4"), std::string::npos);
  EXPECT_EQ(design.batched_config().size, 4);
  EXPECT_NO_THROW(design.batched_config().validate());
}

TEST(Emitter, FullyUnrolledTrsmKernel) {
  RoutineSpec s;
  s.kind = RoutineKind::Trsm;
  s.fully_unrolled = true;
  s.fixed_size = 4;
  s.user_name = "ts4";
  const auto design = emit(s, sim::arria10());
  EXPECT_NE(design.source.find("Fully-unrolled batched TRSM"),
            std::string::npos);
  EXPECT_EQ(design.kernel_names.back(), "ts4");
}

TEST(Emitter, EveryRoutineKindEmits) {
  // Smoke: all 22 routines produce a kernel with their user name.
  for (int i = 0; i < kRoutineCount; ++i) {
    const RoutineInfo& info = all_routines()[i];
    RoutineSpec s;
    s.kind = info.kind;
    s.user_name = "k_" + std::string(info.name);
    s.width = 8;
    s.tile_rows = 32;
    s.tile_cols = 32;
    s.pe_rows = 4;
    s.pe_cols = 4;
    const auto design = emit(s, sim::arria10());
    EXPECT_NE(design.source.find(s.user_name), std::string::npos)
        << info.name;
    EXPECT_FALSE(design.kernel_names.empty()) << info.name;
  }
}

TEST(Emitter, RotAndRotmBodiesApplyTheirMatrix) {
  RoutineSpec s;
  s.user_name = "r";
  s.kind = RoutineKind::Rot;
  auto src = emit(s, sim::stratix10()).source;
  EXPECT_NE(src.find("__kernel void r(float c, float s, int N)"),
            std::string::npos);
  EXPECT_NE(src.find("write_channel_intel(r_ch_ox, c * x + s * y);"),
            std::string::npos);
  EXPECT_NE(src.find("write_channel_intel(r_ch_oy, c * y - s * x);"),
            std::string::npos);
  s.kind = RoutineKind::Rotm;
  src = emit(s, sim::stratix10()).source;
  EXPECT_NE(src.find("__kernel void r(float h11, float h12, float h21, "
                     "float h22, int N)"),
            std::string::npos);
  EXPECT_NE(src.find("write_channel_intel(r_ch_ox, h11 * x + h12 * y);"),
            std::string::npos);
  EXPECT_NE(src.find("write_channel_intel(r_ch_oy, h21 * x + h22 * y);"),
            std::string::npos);
  s.kind = RoutineKind::Swap;
  src = emit(s, sim::stratix10()).source;
  EXPECT_NE(src.find("write_channel_intel(r_ch_ox, y);"), std::string::npos);
  EXPECT_NE(src.find("write_channel_intel(r_ch_oy, x);"), std::string::npos);
}

// ---- Emitted channels are the channels the host runs -----------------------

/// A design of `kind` named "k", small enough for every device.
GeneratedDesign small_design(RoutineKind kind, bool unrolled = false) {
  RoutineSpec s;
  s.kind = kind;
  s.user_name = "k";
  s.width = 8;
  s.tile_rows = 8;
  s.tile_cols = 8;
  s.pe_rows = 4;
  s.pe_cols = 4;
  s.fully_unrolled = unrolled;
  return emit(s, sim::stratix10());
}

/// Every routine the host runs, with n = 8 and 8 x 8 matrices (the
/// batched routines: 4 problems of size 4), keyed by the design that
/// emits it: its kind and whether it is fully unrolled.
struct HostOperands {
  host::Buffer<float> x, y, a, b, c, tri;
};
using HostRun = std::function<void(host::Context&, HostOperands&)>;

const std::vector<std::tuple<RoutineKind, bool, HostRun>>& host_runs() {
  using K = RoutineKind;
  using host::Context;
  constexpr std::int64_t n = 8;
  static const std::vector<std::tuple<RoutineKind, bool, HostRun>> runs = {
      {K::Rotg, false,
       [](Context& ctx, HostOperands&) {
         float a = 3, b = 4;
         ctx.rotg(a, b);
       }},
      {K::Rotmg, false,
       [](Context& ctx, HostOperands&) {
         float d1 = 2, d2 = 1, x1 = 1;
         ctx.rotmg(d1, d2, x1, 0.5f);
       }},
      {K::Rot, false,
       [](Context& ctx, HostOperands& o) { ctx.rot(n, o.x, o.y, 0.6f, 0.8f); }},
      {K::Rotm, false,
       [](Context& ctx, HostOperands& o) {
         ctx.rotm(n, o.x, o.y, ref::RotmParam<float>{0, 0, -0.5f, 0.5f, 0});
       }},
      {K::Swap, false,
       [](Context& ctx, HostOperands& o) { ctx.swap(n, o.x, o.y); }},
      {K::Scal, false,
       [](Context& ctx, HostOperands& o) { ctx.scal(n, 2.0f, o.x); }},
      {K::Copy, false,
       [](Context& ctx, HostOperands& o) { ctx.copy(n, o.x, o.y); }},
      {K::Axpy, false,
       [](Context& ctx, HostOperands& o) { ctx.axpy(n, 2.0f, o.x, o.y); }},
      {K::Dot, false,
       [](Context& ctx, HostOperands& o) { ctx.dot(n, o.x, o.y); }},
      {K::Sdsdot, false,
       [](Context& ctx, HostOperands& o) { ctx.sdsdot(n, 0.5f, o.x, o.y); }},
      {K::Nrm2, false, [](Context& ctx, HostOperands& o) { ctx.nrm2(n, o.x); }},
      {K::Asum, false, [](Context& ctx, HostOperands& o) { ctx.asum(n, o.x); }},
      {K::Iamax, false,
       [](Context& ctx, HostOperands& o) { ctx.iamax(n, o.x); }},
      {K::Gemv, false,
       [](Context& ctx, HostOperands& o) {
         ctx.gemv(Transpose::None, n, n, 1.0f, o.a, o.x, 0.5f, o.y);
       }},
      {K::Trsv, false,
       [](Context& ctx, HostOperands& o) {
         ctx.trsv(Uplo::Lower, Transpose::None, Diag::NonUnit, n, o.tri, o.x);
       }},
      {K::Ger, false,
       [](Context& ctx, HostOperands& o) {
         ctx.ger(n, n, 0.5f, o.x, o.y, o.a);
       }},
      {K::Syr, false,
       [](Context& ctx, HostOperands& o) {
         ctx.syr(Uplo::Lower, n, 0.5f, o.x, o.a);
       }},
      {K::Syr2, false,
       [](Context& ctx, HostOperands& o) {
         ctx.syr2(Uplo::Lower, n, 0.5f, o.x, o.y, o.a);
       }},
      {K::Gemm, false,
       [](Context& ctx, HostOperands& o) {
         ctx.gemm(Transpose::None, Transpose::None, n, n, n, 1.0f, o.a, o.b,
                  0.5f, o.c);
       }},
      {K::Syrk, false,
       [](Context& ctx, HostOperands& o) {
         ctx.syrk(Uplo::Lower, Transpose::None, n, n, 1.0f, o.a, 0.5f, o.c);
       }},
      {K::Syr2k, false,
       [](Context& ctx, HostOperands& o) {
         ctx.syr2k(Uplo::Lower, Transpose::None, n, n, 1.0f, o.a, o.b, 0.5f,
                   o.c);
       }},
      {K::Trsm, false,
       [](Context& ctx, HostOperands& o) {
         ctx.trsm(Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, n,
                  n, 1.0f, o.tri, o.b);
       }},
      {K::Gemm, true,
       [](Context& ctx, HostOperands& o) {
         ctx.gemm_batched(4, 4, 1.0f, o.a, o.b, o.c);
       }},
      {K::Trsm, true,
       [](Context& ctx, HostOperands& o) {
         ctx.trsm_batched(4, 4, 1.0f, o.tri, o.b);
       }},
  };
  return runs;
}

/// The ChannelStats names, in order, of the graphs `run` launches on a
/// freshly traced context. The setup routines run on the calling thread
/// outside any command, so the sink is installed there too.
std::vector<std::string> executed_channels(const HostRun& run) {
  host::Device dev;
  host::Context ctx(dev);
  const auto rec = ctx.tracing();
  Workload wl(23);
  const auto fill = [&](std::vector<float> v, int bank) {
    host::Buffer<float> buf(dev, static_cast<std::int64_t>(v.size()), bank);
    buf.write(v);
    return buf;
  };
  // A lower triangle of 8 x 8 is also four well-conditioned 4 x 4 ones.
  std::vector<float> tri = wl.triangular<float>(4, Uplo::Lower,
                                                Diag::NonUnit);
  for (int i = 0; i < 2; ++i) tri.insert(tri.end(), tri.begin(), tri.end());
  HostOperands o{fill(wl.vector<float>(8), 0),
                 fill(wl.vector<float>(8), 1),
                 fill(wl.matrix<float>(8, 8), 2),
                 fill(wl.matrix<float>(8, 8), 3),
                 fill(wl.matrix<float>(8, 8), 0),
                 fill(wl.triangular<float>(8, Uplo::Lower, Diag::NonUnit), 1)};
  {
    trace::ThreadScope scope(rec.get());
    run(ctx, o);
  }
  ctx.finish();
  std::vector<std::string> names;
  for (const trace::Event& e : rec->events()) {
    if (e.kind == trace::EventKind::ChannelStats) {
      names.emplace_back(e.name_view());
    }
  }
  return names;
}

TEST(Emitter, ChannelsMatchExecutedGraph) {
  EXPECT_EQ(host_runs().size(), static_cast<std::size_t>(kRoutineCount) + 2);
  for (const auto& [kind, unrolled, run] : host_runs()) {
    const GeneratedDesign d = small_design(kind, unrolled);
    std::vector<std::string> emitted;
    for (const std::string& ch : d.channel_names) {
      emitted.push_back(ch.rfind("k_ch_", 0) == 0 ? ch.substr(5) : ch);
    }
    EXPECT_EQ(emitted, executed_channels(run))
        << routine_info(kind).name << (unrolled ? " (fully unrolled)" : "");
  }
}

TEST(Emitter, EveryReferencedChannelIsDeclared) {
  const std::regex decl(R"(^channel \w+ (\w+) )");
  const std::regex use(R"((read|write)_channel_intel\((\w+))");
  const std::regex helper(R"(__kernel void k_(read|write)_(\w+)\()");
  for (const auto& [kind, unrolled, run] : host_runs()) {
    const GeneratedDesign d = small_design(kind, unrolled);
    const std::string what = std::string(routine_info(kind).name) +
                             (unrolled ? " (fully unrolled)" : "");
    std::map<std::string, int> declared, helpers;
    std::istringstream lines(d.source);
    for (std::string line; std::getline(lines, line);) {
      std::smatch m;
      if (std::regex_search(line, m, decl)) ++declared[m[1]];
      if (std::regex_search(line, m, helper)) ++helpers["k_ch_" + m[2].str()];
    }
    for (std::sregex_iterator it(d.source.begin(), d.source.end(), use), end;
         it != end; ++it) {
      EXPECT_EQ(declared.count((*it)[2]), 1u)
          << what << " uses undeclared " << (*it)[2];
    }
    // One declaration and one reader or writer helper per stream.
    std::map<std::string, int> want;
    for (const std::string& ch : d.channel_names) want[ch] = 1;
    EXPECT_EQ(declared, want) << what;
    EXPECT_EQ(helpers, want) << what;
  }
}

// ---- Generated config drives the simulator --------------------------------

TEST(EmitterIntegration, GeneratedGemvConfigRunsAndMatchesOracle) {
  const auto spec = parse_spec(R"({
    "routines": [{"blas": "gemv", "precision": "single", "width": 4,
                  "tile_rows": 8, "tile_cols": 8, "tiles_by": "rows"}]})");
  const auto design = emit(spec.routines[0], sim::device(spec.device));
  const auto cfg = design.gemv_config();

  Workload wl(601);
  const std::int64_t rows = 20, cols = 12;
  auto a = wl.matrix<float>(rows, cols);
  auto x = wl.vector<float>(cols);
  auto y = wl.vector<float>(rows);
  auto expect = y;
  ref::gemv<float>(Transpose::None, 2.0f,
                   MatrixView<const float>(a.data(), rows, cols),
                   VectorView<const float>(x.data(), cols), 0.5f,
                   VectorView<float>(expect.data(), rows));

  stream::Graph g;
  auto& ca = g.channel<float>("A", 64);
  auto& cx = g.channel<float>("x", 64);
  auto& cy = g.channel<float>("y", 64);
  auto& out = g.channel<float>("out", 64);
  std::vector<float> got;
  g.spawn("read_A",
          stream::read_matrix<float>(
              MatrixView<const float>(a.data(), rows, cols),
              core::gemv_a_schedule(cfg), 1, cfg.width, ca));
  g.spawn("read_x", stream::read_vector<float>(
                        VectorView<const float>(x.data(), cols),
                        core::gemv_x_repeat(cfg, rows, cols), cfg.width, cx));
  g.spawn("read_y", stream::read_vector<float>(
                        VectorView<const float>(y.data(), rows), 1,
                        cfg.width, cy));
  g.spawn("gemv", core::gemv<float>(cfg, rows, cols, 2.0f, 0.5f, ca, cx, cy,
                                    out));
  g.spawn("collect", stream::collect<float>(rows, out, got));
  g.run();
  EXPECT_LT(rel_error(got, expect), 1e-4);
}

}  // namespace
}  // namespace fblas::codegen
