#include "codegen/routine_spec.hpp"

namespace fblas::codegen {
namespace {

Precision parse_precision(const Json& j) {
  const std::string& s = j.as_string();
  if (s == "single" || s == "float") return Precision::Single;
  if (s == "double") return Precision::Double;
  throw ParseError("unknown precision: '" + s + "'");
}

core::MatrixTiling parse_tiling(const Json& j) {
  const std::string& s = j.as_string();
  if (s == "rows") return core::MatrixTiling::TilesByRows;
  if (s == "cols" || s == "columns") return core::MatrixTiling::TilesByCols;
  throw ParseError("tiles_by must be \"rows\" or \"cols\", got '" + s + "'");
}

Uplo parse_uplo(const Json& j) {
  const std::string& s = j.as_string();
  if (s == "lower") return Uplo::Lower;
  if (s == "upper") return Uplo::Upper;
  throw ParseError("uplo must be \"lower\" or \"upper\", got '" + s + "'");
}

Diag parse_diag(const Json& j) {
  const std::string& s = j.as_string();
  if (s == "unit") return Diag::Unit;
  if (s == "non_unit") return Diag::NonUnit;
  throw ParseError("diag must be \"unit\" or \"non_unit\", got '" + s + "'");
}

int parse_positive_int(const Json& j, const char* what) {
  const std::int64_t v = j.as_int();
  if (v < 1) throw ParseError(std::string(what) + " must be positive");
  return static_cast<int>(v);
}

RoutineSpec parse_routine(const Json& j) {
  if (!j.is_object()) throw ParseError("routine entry must be an object");
  RoutineSpec spec;
  if (!j.contains("blas")) throw ParseError("routine entry misses \"blas\"");
  try {
    spec.kind = routine_from_name(j.at("blas").as_string());
  } catch (const ConfigError& e) {
    throw ParseError(e.what());
  }
  if (j.contains("precision")) spec.precision = parse_precision(j.at("precision"));
  if (j.contains("user_name")) spec.user_name = j.at("user_name").as_string();
  if (spec.user_name.empty()) spec.user_name = "fblas_" + spec.blas_name();
  if (j.contains("width")) {
    spec.width = parse_positive_int(j.at("width"), "width");
  }
  if (j.contains("tile_rows")) {
    spec.tile_rows = parse_positive_int(j.at("tile_rows"), "tile_rows");
  }
  if (j.contains("tile_cols")) {
    spec.tile_cols = parse_positive_int(j.at("tile_cols"), "tile_cols");
  }
  if (j.contains("pe_rows")) {
    spec.pe_rows = parse_positive_int(j.at("pe_rows"), "pe_rows");
  }
  if (j.contains("pe_cols")) {
    spec.pe_cols = parse_positive_int(j.at("pe_cols"), "pe_cols");
  }
  if (j.contains("transposed")) {
    spec.trans = j.at("transposed").as_bool() ? Transpose::Trans
                                              : Transpose::None;
  }
  if (j.contains("tiles_by")) spec.tiling = parse_tiling(j.at("tiles_by"));
  if (j.contains("elems_by")) {
    const std::string& s = j.at("elems_by").as_string();
    if (s == "rows") {
      spec.elem_order = Order::RowMajor;
    } else if (s == "cols" || s == "columns") {
      spec.elem_order = Order::ColMajor;
    } else {
      throw ParseError("elems_by must be \"rows\" or \"cols\"");
    }
  }
  if (j.contains("uplo")) spec.uplo = parse_uplo(j.at("uplo"));
  if (j.contains("diag")) spec.diag = parse_diag(j.at("diag"));
  if (j.contains("fully_unrolled")) {
    spec.fully_unrolled = j.at("fully_unrolled").as_bool();
  }
  if (j.contains("fixed_size")) {
    spec.fixed_size = parse_positive_int(j.at("fixed_size"), "fixed_size");
  }
  if (spec.fully_unrolled) {
    if (spec.kind != RoutineKind::Gemm && spec.kind != RoutineKind::Trsm) {
      throw ParseError(
          "fully_unrolled is supported for gemm and trsm (the Table V "
          "batched circuits)");
    }
    if (spec.fixed_size > 32) {
      throw ParseError("fully_unrolled fixed_size must be <= 32");
    }
  }

  // Level-3 consistency: the compute tile must be a multiple of the grid.
  const RoutineInfo& info = routine_info(spec.kind);
  if (info.circuit == CircuitClass::Systolic &&
      spec.kind != RoutineKind::Trsm) {
    if (spec.tile_rows == 1024 && spec.tile_cols == 1024) {
      // Defaults tuned for Level 2; pick grid-aligned Level-3 defaults.
      spec.tile_rows = 8L * spec.pe_rows;
      spec.tile_cols = 8L * spec.pe_cols;
    }
    if (spec.tile_rows % spec.pe_rows != 0 ||
        spec.tile_cols % spec.pe_cols != 0) {
      throw ParseError("gemm-family tiles must be multiples of the PE grid");
    }
  }
  return spec;
}

}  // namespace

std::string RoutineSpec::blas_name() const {
  const RoutineInfo& info = routine_info(kind);
  if (kind == RoutineKind::Sdsdot) return std::string(info.name);
  const char prefix = precision == Precision::Single ? 's' : 'd';
  return prefix + std::string(info.name);
}

Streams streams(const RoutineSpec& spec) {
  switch (spec.kind) {
    case RoutineKind::Rotg: return {{"ab"}, {"rzcs"}};
    case RoutineKind::Rotmg: return {{"in"}, {"out"}};
    case RoutineKind::Rot:
    case RoutineKind::Rotm:
    case RoutineKind::Swap: return {{"x", "y"}, {"ox", "oy"}};
    case RoutineKind::Scal:
    case RoutineKind::Copy: return {{"x"}, {"out"}};
    case RoutineKind::Axpy: return {{"x", "y"}, {"out"}};
    case RoutineKind::Dot:
    case RoutineKind::Sdsdot: return {{"x", "y"}, {"res"}};
    case RoutineKind::Nrm2:
    case RoutineKind::Asum:
    case RoutineKind::Iamax: return {{"x"}, {"res"}};
    case RoutineKind::Gemv:
    case RoutineKind::Ger: return {{"A", "x", "y"}, {"out"}};
    case RoutineKind::Trsv: return {{"A", "b"}, {"x"}};
    case RoutineKind::Syr: return {{"A", "x_row", "x_col"}, {"out"}};
    case RoutineKind::Syr2:
      return {{"A", "x_row", "x_col", "y_row", "y_col"}, {"out"}};
    case RoutineKind::Gemm:
      if (spec.fully_unrolled) return {{"A", "B"}, {"C"}};
      return {{"A", "B", "Cin"}, {"out"}};
    case RoutineKind::Syrk: return {{"A", "At", "Cin"}, {"out"}};
    case RoutineKind::Syr2k:
      return {{"Acol", "Bcol", "Atrow", "Btrow", "Cin"}, {"out"}};
    case RoutineKind::Trsm: return {{"A", "B"}, {"X"}};
  }
  return {};
}

SpecFile parse_spec(const std::string& json_text) {
  const Json doc = Json::parse(json_text);
  if (!doc.is_object()) throw ParseError("spec document must be an object");
  SpecFile out;
  if (doc.contains("device")) {
    try {
      out.device = sim::device_from_name(doc.at("device").as_string());
    } catch (const ConfigError& e) {
      throw ParseError(e.what());
    }
  }
  if (!doc.contains("routines") || !doc.at("routines").is_array()) {
    throw ParseError("spec document needs a \"routines\" array");
  }
  const Json& arr = doc.at("routines");
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.routines.push_back(parse_routine(arr.at(i)));
  }
  if (out.routines.empty()) {
    throw ParseError("\"routines\" array is empty");
  }
  return out;
}

std::string spec_to_json(const SpecFile& spec) {
  Json doc = Json::object();
  doc["device"] = Json::string(
      spec.device == sim::DeviceId::Arria10 ? "arria10" : "stratix10");
  Json arr = Json::array();
  for (const RoutineSpec& r : spec.routines) {
    const RoutineInfo& info = routine_info(r.kind);
    Json j = Json::object();
    j["blas"] = Json::string(std::string(info.name));
    j["precision"] = Json::string(
        r.precision == Precision::Single ? "single" : "double");
    j["user_name"] = Json::string(r.user_name);
    j["width"] = Json::number(r.width);
    if (info.streams_matrix) {
      j["tile_rows"] = Json::number(static_cast<double>(r.tile_rows));
      j["tile_cols"] = Json::number(static_cast<double>(r.tile_cols));
      j["transposed"] = Json::boolean(r.trans == Transpose::Trans);
      j["tiles_by"] = Json::string(
          r.tiling == core::MatrixTiling::TilesByRows ? "rows" : "cols");
      j["elems_by"] = Json::string(
          r.elem_order == Order::RowMajor ? "rows" : "cols");
    }
    if (info.circuit == CircuitClass::Systolic) {
      j["pe_rows"] = Json::number(r.pe_rows);
      j["pe_cols"] = Json::number(r.pe_cols);
    }
    if (r.kind == RoutineKind::Trsv || r.kind == RoutineKind::Trsm) {
      j["uplo"] = Json::string(r.uplo == Uplo::Lower ? "lower" : "upper");
      j["diag"] = Json::string(r.diag == Diag::Unit ? "unit" : "non_unit");
    }
    if (r.fully_unrolled) {
      j["fully_unrolled"] = Json::boolean(true);
      j["fixed_size"] = Json::number(static_cast<double>(r.fixed_size));
    }
    arr.push_back(std::move(j));
  }
  doc["routines"] = std::move(arr);
  return doc.dump(2);
}

}  // namespace fblas::codegen
