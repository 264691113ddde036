// Unit tests for the common substrate: types, views, workload, tables.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/routines.hpp"
#include "common/table_printer.hpp"
#include "common/types.hpp"
#include "common/view.hpp"
#include "common/workload.hpp"

namespace fblas {
namespace {

TEST(Types, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 1024), 1);
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(12, 4), 12);
}

TEST(Types, PrecisionTraits) {
  EXPECT_EQ(PrecisionTraits<float>::value, Precision::Single);
  EXPECT_EQ(PrecisionTraits<double>::value, Precision::Double);
  EXPECT_EQ(PrecisionTraits<float>::prefix, 's');
  EXPECT_EQ(bytes_of(Precision::Single), 4u);
  EXPECT_EQ(bytes_of(Precision::Double), 8u);
  EXPECT_EQ(to_string(Precision::Double), "double");
}

TEST(VectorView, StridedAccess) {
  std::vector<float> data{0, 1, 2, 3, 4, 5, 6, 7};
  VectorView<float> v(data.data(), 4, 2);
  EXPECT_EQ(v.size(), 4);
  EXPECT_FLOAT_EQ(v[0], 0);
  EXPECT_FLOAT_EQ(v[3], 6);
  v[1] = 42;
  EXPECT_FLOAT_EQ(data[2], 42);
  auto sub = v.sub(1, 2);
  EXPECT_FLOAT_EQ(sub[0], 42);
  EXPECT_FLOAT_EQ(sub[1], 4);
}

TEST(VectorView, RejectsBadIncrement) {
  float x = 0;
  EXPECT_THROW(VectorView<float>(&x, 1, 0), ConfigError);
  EXPECT_THROW(VectorView<float>(&x, -1, 1), ConfigError);
}

TEST(MatrixView, BlockAddressing) {
  std::vector<double> data(12);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = double(i);
  MatrixView<double> A(data.data(), 3, 4);
  EXPECT_DOUBLE_EQ(A(0, 0), 0);
  EXPECT_DOUBLE_EQ(A(2, 3), 11);
  auto B = A.block(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ(B(0, 0), 5);
  EXPECT_DOUBLE_EQ(B(1, 1), 10);
  B(0, 1) = -1;
  EXPECT_DOUBLE_EQ(A(1, 2), -1);
}

TEST(MatrixView, RejectsShortLeadingDimension) {
  std::vector<float> d(12);
  EXPECT_THROW(MatrixView<float>(d.data(), 3, 4, 3), ConfigError);
}

TEST(Workload, Deterministic) {
  Workload a(7), b(7);
  auto va = a.vector<double>(100);
  auto vb = b.vector<double>(100);
  EXPECT_EQ(va, vb);
  for (double x : va) {
    EXPECT_GE(x, -1.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  Workload a(1), b(2);
  EXPECT_NE(a.vector<float>(16), b.vector<float>(16));
}

TEST(Workload, TriangularIsTriangularAndStable) {
  Workload w;
  const std::int64_t n = 8;
  auto lo = w.triangular<double>(n, Uplo::Lower, Diag::NonUnit);
  MatrixView<double> L(lo.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_GE(L(i, i), 1.0);
    for (std::int64_t j = i + 1; j < n; ++j) EXPECT_EQ(L(i, j), 0.0);
  }
  auto up = w.triangular<float>(n, Uplo::Upper, Diag::Unit);
  MatrixView<float> U(up.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(U(i, i), 1.0f);
    for (std::int64_t j = 0; j < i; ++j) EXPECT_EQ(U(i, j), 0.0f);
  }
}

TEST(ErrorHelpers, RelError) {
  std::vector<double> a{1.0, 2.0}, b{1.0, 2.0};
  EXPECT_EQ(rel_error(a, b), 0.0);
  a[1] = 2.5;
  EXPECT_NEAR(rel_error(a, b), 0.25, 1e-12);
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-12);
}

TEST(RoutineMetadata, AllTwentyTwoRoutinesRegistered) {
  // Sec. VI: 13 Level-1 + 5 Level-2 + 4 Level-3 = 22 routines.
  int by_level[4] = {0, 0, 0, 0};
  for (int i = 0; i < kRoutineCount; ++i) {
    const RoutineInfo& r = all_routines()[i];
    ASSERT_GE(r.level, 1);
    ASSERT_LE(r.level, 3);
    ++by_level[r.level];
    // Name round-trips through the lookup.
    EXPECT_EQ(routine_from_name(r.name), r.kind) << r.name;
    // Metadata self-consistency.
    EXPECT_GE(r.operands_per_width, 1) << r.name;
    if (r.level >= 2) {
      EXPECT_TRUE(r.streams_matrix) << r.name;
    }
  }
  EXPECT_EQ(by_level[1], 13);
  EXPECT_EQ(by_level[2], 5);
  EXPECT_EQ(by_level[3], 4);
}

TEST(RoutineMetadata, PrecisionPrefixesStrip) {
  EXPECT_EQ(routine_from_name("sdot"), RoutineKind::Dot);
  EXPECT_EQ(routine_from_name("dgemv"), RoutineKind::Gemv);
  EXPECT_EQ(routine_from_name("sdsdot"), RoutineKind::Sdsdot);
  EXPECT_EQ(routine_from_name("dtrsm"), RoutineKind::Trsm);
  EXPECT_THROW(routine_from_name("zherk"), ConfigError);
  EXPECT_THROW(routine_from_name(""), ConfigError);
}

TEST(RoutineMetadata, CircuitClasses) {
  EXPECT_EQ(routine_info(RoutineKind::Scal).circuit, CircuitClass::Map);
  EXPECT_EQ(routine_info(RoutineKind::Dot).circuit, CircuitClass::MapReduce);
  EXPECT_EQ(routine_info(RoutineKind::Gemm).circuit, CircuitClass::Systolic);
  EXPECT_EQ(routine_info(RoutineKind::Dot).operands_per_width, 2);
  EXPECT_EQ(routine_info(RoutineKind::Scal).operands_per_width, 1);
}

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"Routine", "W", "GOps/s"});
  t.add_row({"DOT", "16", TablePrinter::fmt(12.345, 2)});
  t.add_row({"GEMV", "256", "1.00"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("Routine"), std::string::npos);
  EXPECT_NE(s.find("12.35"), std::string::npos);
  EXPECT_NE(s.find("| GEMV"), std::string::npos);
}

TEST(TablePrinter, RejectsAriyMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(TablePrinter, Formatters) {
  EXPECT_EQ(TablePrinter::fmt_int(42), "42");
  EXPECT_EQ(TablePrinter::fmt_rate(1.28e12), "1.28 TOps/s");
  EXPECT_EQ(TablePrinter::fmt_rate(5.0e9), "5.00 GOps/s");
  EXPECT_EQ(TablePrinter::fmt_time(1.5e-6), "1.5 usec");
  EXPECT_EQ(TablePrinter::fmt_time(0.25), "250.00 msec");
  EXPECT_EQ(TablePrinter::fmt_time(2.0), "2.00 sec");
}

TEST(Json, DumpRoundTripsExactly) {
  std::string controls;
  for (int c = 0x01; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  const std::vector<double> values = {1234567.891, 0.1,   1e-300,
                                      -2.5e17,     0x1p53, -0.5};
  Json numbers = Json::array();
  for (const double v : values) numbers.push_back(Json::number(v));
  Json inner = Json::object();
  inner["empty"] = Json::array();
  inner["flag"] = Json::boolean(false);
  inner["none"] = Json();
  Json nested = Json::array();
  nested.push_back(inner);
  nested.push_back(Json::array());
  Json doc = Json::object();
  doc["controls"] = Json::string(controls);
  doc["quotes"] = Json::string("say \"hi\" \\ and \\\"");
  doc[controls] = Json::number(1);
  doc["numbers"] = numbers;
  doc["nested"] = nested;

  for (const int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    const Json back = Json::parse(text);
    EXPECT_TRUE(back == doc) << text;
    EXPECT_EQ(back.at("controls").as_string(), controls);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(back.at("numbers").at(i).as_number(), values[i]) << text;
    }
  }
}

TEST(Require, ThrowsWithContext) {
  try {
    FBLAS_REQUIRE(1 == 2, "impossible arithmetic");
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("impossible arithmetic"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace fblas
