// A typed, buffer-bound MDAG description the composition compiler can
// execute: the user-facing half of the "one pipeline from graph
// description to verified streaming command" flow.
//
//   host::Composition<float> c("atax");
//   const int ra = c.input("read_A", a);
//   const int rx = c.input("read_x", x);
//   const int wy = c.output("write_y", y);
//   const int g1 = c.gemv("gemv", 1.0f, 0.0f);
//   const int g2 = c.gemv("gemv_T", 1.0f, 0.0f, Transpose::Trans);
//   c.connect(ra, g1, a_sig); ... c.connect(g2, wy, StreamSig::vec(m));
//   ctx.run_composition(c);
//
// A Composition owns nothing device-side: it is a plain value (an
// mdag::Mdag plus per-node semantics, exact-precision coefficients, and
// buffer bindings) that Context::run_composition_async copies into the
// enqueued command. mdag::compile() decides whether and how it executes
// — which ports take which streams, channel sizing, sequential splits,
// DRAM round trips, fan-outs, zero inputs and the checksum tap plan all
// come from the compiler, never from the app.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "host/buffer.hpp"
#include "mdag/compile.hpp"

namespace fblas::host {

template <typename T>
class Composition {
 public:
  /// DRAM attachment of one interface node. Exactly one pointer is set:
  /// `in` for readers, `out` for buffer writers, `scalar` for a
  /// host-scalar writer (a DOT result).
  struct Binding {
    const Buffer<T>* in = nullptr;
    Buffer<T>* out = nullptr;
    T* scalar = nullptr;
  };

  explicit Composition(std::string name) : name_(std::move(name)) {}

  // --- Interface nodes ----------------------------------------------------

  /// Reader streaming `buf` (vector or tiled matrix per the out-edge
  /// signatures declared on it).
  int input(const std::string& node, const Buffer<T>& buf) {
    const int id = graph_.add_interface(node);
    append(Binding{&buf, nullptr, nullptr});
    return id;
  }

  /// Reader streaming the `uplo` triangle of op(A) in solve order (the
  /// TRSV A operand). `buf` holds the full n x n matrix dense; the edge
  /// carries n(n+1)/2 elements.
  int input_triangular(const std::string& node, const Buffer<T>& buf,
                       Uplo uplo, Transpose trans = Transpose::None) {
    const int id = input(node, buf);
    sem_.back().triangular = true;
    sem_.back().uplo = uplo;
    sem_.back().trans = trans;
    return id;
  }

  /// Writer materializing its one in-edge into `buf`.
  int output(const std::string& node, Buffer<T>& buf) {
    const int id = graph_.add_interface(node);
    append(Binding{nullptr, &buf, nullptr});
    sem_.back().is_output = true;
    return id;
  }

  /// Writer collecting a scalar stream (count 1) into `*result`.
  int output_scalar(const std::string& node, T* result) {
    FBLAS_REQUIRE(result != nullptr,
                  "composition: scalar output needs a destination");
    const int id = graph_.add_interface(node);
    append(Binding{nullptr, nullptr, result});
    sem_.back().is_output = true;
    return id;
  }

  // --- Compute nodes (in-edge ports follow mdag::NodeSemantics) ----------

  /// y = alpha op(A) x + beta y0; ports [A, x, y0]. Without a y0 edge the
  /// compiler synthesizes a zero stream and forces beta = 0.
  int gemv(const std::string& node, T alpha, T beta,
           Transpose trans = Transpose::None) {
    const int id = graph_.add_compute(node, RoutineKind::Gemv, 40);
    append({}, alpha, beta);
    sem_.back().trans = trans;
    return id;
  }

  /// out = A0 + alpha x y^T; ports [A0, x, y].
  int ger(const std::string& node, T alpha) {
    const int id = graph_.add_compute(node, RoutineKind::Ger, 20);
    append({}, alpha);
    return id;
  }

  /// Solves op(A) x = b; ports [A (triangular reader), b]. `uplo` is the
  /// stored triangle of the bound matrix.
  int trsv(const std::string& node, Uplo uplo,
           Transpose trans = Transpose::None, Diag diag = Diag::NonUnit) {
    const int id = graph_.add_compute(node, RoutineKind::Trsv, 40);
    append({});
    sem_.back().uplo = uplo;
    sem_.back().trans = trans;
    sem_.back().diag = diag;
    return id;
  }

  /// out = alpha x + y; ports [x, y].
  int axpy(const std::string& node, T alpha) {
    const int id = graph_.add_compute(node, RoutineKind::Axpy, 12);
    append({}, alpha);
    return id;
  }

  /// out = alpha x; port [x].
  int scal(const std::string& node, T alpha) {
    const int id = graph_.add_compute(node, RoutineKind::Scal, 8);
    append({}, alpha);
    return id;
  }

  /// out = x^T y (a count-1 stream); ports [x, y].
  int dot(const std::string& node) {
    const int id = graph_.add_compute(node, RoutineKind::Dot, 30);
    append({});
    return id;
  }

  // --- Edges --------------------------------------------------------------

  int connect(int from, int to, mdag::StreamSig sig) {
    return graph_.connect(from, to, sig);
  }
  /// Mismatched endpoint signatures: a pure replay/reschedule mismatch is
  /// legal and compiles to a DRAM round trip (forced cut); anything else
  /// is rejected at enqueue.
  int connect(int from, int to, mdag::StreamSig produced,
              mdag::StreamSig consumed) {
    return graph_.connect(from, to, produced, consumed);
  }

  // --- Execution knobs ----------------------------------------------------

  Composition& max_channel_depth(std::int64_t depth) {
    max_channel_depth_ = depth;
    return *this;
  }
  /// Rejects (at enqueue, with the validity diagnostic) any composition
  /// the compiler cannot execute as a single fully-streaming component.
  Composition& require_streaming(bool on = true) {
    require_streaming_ = on;
    return *this;
  }
  /// Prefers a sequential split over channel sizing when the graph is
  /// not a multitree (the Fig. 9 GEMVER schedule: cut instead of
  /// buffering B on chip).
  Composition& prefer_split(bool on = true) {
    prefer_split_ = on;
    return *this;
  }

  // --- Accessors (the compiler/runtime side) ------------------------------

  const std::string& name() const { return name_; }
  const mdag::Mdag& graph() const { return graph_; }
  const std::vector<mdag::NodeSemantics>& semantics() const { return sem_; }
  const Binding& binding(int node) const {
    return bind_[static_cast<std::size_t>(node)];
  }
  /// Exact-precision coefficients of compute nodes.
  T alpha_of(int node) const { return alpha_[static_cast<std::size_t>(node)]; }
  T beta_of(int node) const { return beta_[static_cast<std::size_t>(node)]; }
  std::int64_t max_channel_depth() const { return max_channel_depth_; }
  bool streaming_required() const { return require_streaming_; }
  bool split_preferred() const { return prefer_split_; }

 private:
  void append(Binding b, T alpha = T(1), T beta = T(0)) {
    sem_.emplace_back();
    bind_.push_back(b);
    alpha_.push_back(alpha);
    beta_.push_back(beta);
  }

  std::string name_;
  mdag::Mdag graph_;
  std::vector<mdag::NodeSemantics> sem_;
  std::vector<Binding> bind_;
  std::vector<T> alpha_, beta_;
  std::int64_t max_channel_depth_ = 1 << 16;
  bool require_streaming_ = false;
  bool prefer_split_ = false;
};

}  // namespace fblas::host
