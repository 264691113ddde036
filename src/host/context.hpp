// The FBLAS host API (Sec. II-B): classical BLAS calls executed by
// lowering each routine to a streaming module graph — interface helper
// kernels around the module — and running it on the simulated device.
//
// Calls come in a synchronous form (e.g. `ctx.scal(...)`) and an
// asynchronous form (`ctx.scal_async(...)` returning an Event).
//
// Execution model: every enqueued command declares the buffers it reads
// and writes; a DepGraph derives the RAW/WAR/WAW hazards that force
// program order, and an Executor runs the commands.
//
//   Context ctx(dev, mode);            // serial: commands run lazily, in
//                                      // program order, when waited on
//   Context ctx(dev, mode, /*workers=*/4);  // out-of-order: a worker pool
//                                      // eagerly runs every command whose
//                                      // hazards are resolved, so calls on
//                                      // disjoint buffers overlap
//
// Results are bit-identical across policies: conflicting commands retain
// program order, only independent ones overlap. total_cycles() sums the
// device cycles of all commands (the serial schedule); makespan_cycles()
// is the critical-path time an overlapped schedule needs.
//
// Stride convention: every synchronous wrapper defaults a trailing
// increment argument to 1, and every routine with vector strides also has
// a unit-stride overload that omits them entirely (e.g. `ctx.axpy(n,
// alpha, x, y)`). Asynchronous forms always take explicit strides.
//
// Non-functional parameters (vectorization width, tile sizes, tiling
// scheme, systolic grid) are per-context RoutineConfig knobs — the same
// knobs the code generator exposes in its JSON routine specification.
// They are captured when a call is *enqueued* — by every routine,
// including the specialized ones lowered onto GEMV — so a ConfigGuard (or
// `ctx.with(cfg)->gemm(...)`) scopes an override to specific calls
// without racing against commands already in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/routines.hpp"
#include "common/types.hpp"
#include "fblas/level2.hpp"
#include "fblas/level3.hpp"
#include "host/buffer.hpp"
#include "host/dep_graph.hpp"
#include "host/device.hpp"
#include "host/device_pool.hpp"
#include "host/event.hpp"
#include "host/executor.hpp"
#include "refblas/level1.hpp"
#include "stream/graph.hpp"
#include "systolic/systolic_array.hpp"
#include "trace/trace.hpp"
#include "verify/abft.hpp"
#include "verify/options.hpp"
#include "verify/policy.hpp"

namespace fblas::host {

/// Tunable non-functional parameters applied to subsequent calls.
struct RoutineConfig {
  int width = 16;                   ///< vectorization width W
  std::int64_t tile_rows = 256;     ///< TN (Level 2)
  std::int64_t tile_cols = 256;     ///< TM (Level 2)
  core::MatrixTiling tiling = core::MatrixTiling::TilesByRows;
  int pe_rows = 4;                  ///< PR (Level 3)
  int pe_cols = 4;                  ///< PC (Level 3)
  std::int64_t gemm_tile_rows = 16; ///< TR (Level 3 memory tile)
  std::int64_t gemm_tile_cols = 16; ///< TC

  // --- Result verification (ABFT) ---------------------------------------
  /// All verification knobs in one value type with a fluent builder:
  ///
  ///   ctx.config().verification = verify::Options::always()
  ///                                   .tolerance_scale(4)
  ///                                   .trap_nonfinite();
  ///
  /// A rejected result is treated like a detected transient fault —
  /// rollback, retry, CPU fallback — under the RetryPolicy. The same
  /// Options value configures composed app commands (apps/*_composed).
  verify::Options verification;

  /// Rejects nonsensical knobs (width <= 0, tile sizes <= 0, empty
  /// systolic grid, out-of-range verification rates) with a ConfigError
  /// naming the offending knob. Called by Context::enqueue for every
  /// routine command, so a bad configuration fails at the call site
  /// instead of as undefined behavior deep in a lowering.
  void validate() const;
};

/// A prepared ABFT result check: compares a command's outputs against the
/// checksums its checker captured and throws VerificationError when they
/// diverge by more than `tol_scale` times the routine's error bound.
using ResultCheck = std::function<void(double tol_scale)>;

/// A unit of work for the runtime: the closure plus the declared buffer
/// read/write sets hazards are derived from (Buffer addresses for device
/// data, host pointers for scalar results) and optional explicit event
/// dependencies. A command with `barrier` set (or one enqueued without
/// declared sets) orders against everything.
///
/// `fallback`, when set, is the routine's CPU reference path
/// (refblas): after the RetryPolicy exhausts device retries it is run
/// against the rolled-back write-set and the command completes Degraded
/// instead of Failed. Commands are pure w.r.t. their declared sets, so
/// the fallback sees exactly the inputs the device attempt saw.
struct Command {
  std::function<void()> work;
  std::function<void()> fallback;
  /// ABFT result verification, armed per the captured RoutineConfig's
  /// VerifyPolicy. The checker runs once, after the write-set snapshot
  /// and before the first attempt: it captures the input checksums and
  /// returns the check. The check runs after every device-Ok attempt
  /// with the captured tolerance scale and throws VerificationError on
  /// mismatch, which the executor handles like a transient fault.
  /// Lowerings attach it through enqueue(cmd, checker), which only
  /// builds it when verification is enabled.
  std::function<ResultCheck()> checker;
  /// Optional steering of an injected SilentCorrupt fault: maps the
  /// injector's raw draw over the write-set byte span to the byte offset
  /// actually mangled. Routines whose write set is only partially live
  /// (e.g. SYRK writes one triangle of C) install this so an injected
  /// silent corruption always lands on bytes the routine semantically
  /// owns — otherwise the fault can fall in the preserved region, where
  /// no checker could (or should) see it.
  std::function<std::uint64_t(std::uint64_t raw, std::uint64_t size)>
      corrupt_steer;
  std::vector<const void*> reads;
  std::vector<const void*> writes;
  std::vector<Event> after;
  bool barrier = false;
  /// Routine name for observability ("gemm", "atax", ...). Shows up as
  /// the span name in trace::export_chrome; empty labels render as
  /// "cmd" (barriers as "barrier"). Purely diagnostic.
  std::string label;
};

class ConfigGuard;
template <typename T>
class Composition;

class Context {
 public:
  /// `workers == 0` (default) keeps the serial in-order queue; `workers
  /// > 0` enables the out-of-order executor with that many threads.
  /// A single device is wrapped in a (non-owning) pool of one, so every
  /// Context runs the same fleet-health path — placement, breaker
  /// tracking, per-device stats — whether it drives one board or many.
  explicit Context(Device& dev, stream::Mode mode = stream::Mode::Functional,
                   int workers = 0);
  /// Drives a device fleet: commands are placed per attempt by the
  /// pool's health-weighted scoring, buffers migrate off quarantined
  /// devices, and a retry after a breaker opened transparently lands on
  /// a healthy sibling. The pool must outlive the Context.
  explicit Context(DevicePool& pool,
                   stream::Mode mode = stream::Mode::Functional,
                   int workers = 0);

  /// The primary device (pool device 0): where buffers land by default
  /// and what spec-level lowering decisions read. Same spec across the
  /// pool, so any device answers spec queries identically.
  Device& device() { return *dev_; }
  DevicePool& pool() { return *pool_; }
  const DevicePool& pool() const { return *pool_; }
  RoutineConfig& config() { return cfg_; }
  const RoutineConfig& config() const { return cfg_; }
  stream::Mode mode() const { return mode_; }
  int workers() const { return exec_->workers(); }

  /// Scopes a RoutineConfig override: applies `cfg` now and restores the
  /// previous configuration when the guard dies. Usable inline —
  /// `ctx.with(cfg)->gemm(...)` — because knobs are captured at enqueue.
  ConfigGuard with(const RoutineConfig& cfg);

  /// Cycles of the most recently executed command (cycle mode only).
  std::uint64_t last_cycles() const { return last_cycles_.load(); }
  /// Cumulative cycles across all executed commands (serial schedule).
  std::uint64_t total_cycles() const { return total_cycles_.load(); }
  /// Critical-path cycles of the executed command DAG: the device time an
  /// out-of-order schedule needs once independent commands overlap.
  std::uint64_t makespan_cycles() const {
    return exec_->stats().makespan_cycles;
  }
  /// Executor counters (commands executed, in-flight high-water mark,
  /// retries, injected faults, degraded completions...).
  ExecStats exec_stats() const;

  // --- Tracing -----------------------------------------------------------
  /// Arms cycle-accurate tracing for subsequently enqueued commands:
  /// lifecycle spans (enqueue -> deps-ready -> placed -> attempt ->
  /// verify -> retry/migrate -> complete), engine summaries and counter
  /// samples land in the returned Recorder — render it with
  /// trace::export_chrome or query trace::MetricsSnapshot via
  /// Recorder::metrics(). Off by default with near-zero disarmed cost;
  /// re-arming replaces the recorder (commands already in flight keep
  /// emitting into the one they started with).
  std::shared_ptr<trace::Recorder> tracing(const trace::Options& opts = {});
  /// The armed recorder, or nullptr when tracing is off.
  std::shared_ptr<trace::Recorder> trace_recorder() const { return trace_; }
  /// Disarms tracing: subsequently enqueued commands stop emitting. The
  /// recorder itself stays valid for as long as someone holds it.
  void stop_tracing();

  // --- Fault tolerance ---------------------------------------------------
  /// Retry policy for transient device failures (DeviceError /
  /// TimeoutError): write-set snapshot before the attempt, rollback +
  /// bounded-backoff re-run on failure, optional CPU fallback after
  /// retries are exhausted. Applies to routine commands (not barriers)
  /// enqueued after the call: each command captures the policy at
  /// enqueue, like the RoutineConfig and the watchdog, so commands
  /// already queued keep the policy they were enqueued under.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  RetryPolicy retry_policy() const { return retry_; }

  /// Watchdog applied to every graph launch of subsequently enqueued
  /// commands (captured at enqueue, like the RoutineConfig): a graph
  /// exceeding a budget raises TimeoutError instead of hanging the host.
  void set_watchdog(const stream::Watchdog& wd) { watchdog_ = wd; }
  const stream::Watchdog& watchdog() const { return watchdog_; }

  /// Queue management. The untyped overloads enqueue `work` as a barrier
  /// command (it declares no sets, so it orders against everything);
  /// `after` adds explicit event dependencies on top of the derived ones.
  /// Enqueuing from inside a running command body — including any
  /// library call made there — throws Error: a command runs no other
  /// command.
  Event enqueue(Command cmd);
  /// enqueue(cmd) with `checker` (a callable returning a ResultCheck)
  /// attached as cmd.checker when the current configuration enables
  /// verification; unverified commands never build it.
  template <typename Checker>
  Event enqueue(Command cmd, Checker&& checker) {
    if (cfg_.verification.enabled()) {
      cmd.checker = std::forward<Checker>(checker);
    }
    return enqueue(std::move(cmd));
  }
  Event enqueue(std::function<void()> work);
  Event enqueue(std::function<void()> work, std::span<const Event> after);
  void finish();
  bool idle() const { return exec_->idle(); }

  /// Runs a built graph under the captured watchdog and records its cycle
  /// count (fault injection, taint tracking, cycle accounting — all
  /// through the running Attempt record). Called by the routine lowerings
  /// and the composition interpreter from inside a command's work; no app
  /// calls it directly.
  void run_graph(stream::Graph& g);

  /// Effective Sampled-mode rate for the next command: the configured
  /// base rate, unless adaptive sampling is on and rejections have pushed
  /// it up (decaying back toward max(0.01, base/4) as checks come clean).
  double effective_sample_rate(const verify::Options& vo) const;

  // --- Level 1 ----------------------------------------------------------
  // rotg/rotmg are host-scalar setup routines (synchronous only).
  template <typename T>
  ref::Givens<T> rotg(T& a, T& b);
  template <typename T>
  ref::RotmParam<T> rotmg(T& d1, T& d2, T& x1, T y1);

  template <typename T>
  Event rot_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                  Buffer<T>& y, std::int64_t incy, T c, T s);
  template <typename T>
  Event rotm_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                   Buffer<T>& y, std::int64_t incy, ref::RotmParam<T> p);
  template <typename T>
  Event swap_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                   Buffer<T>& y, std::int64_t incy);
  template <typename T>
  Event scal_async(std::int64_t n, T alpha, Buffer<T>& x, std::int64_t incx);
  template <typename T>
  Event copy_async(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
                   Buffer<T>& y, std::int64_t incy);
  template <typename T>
  Event axpy_async(std::int64_t n, T alpha, const Buffer<T>& x,
                   std::int64_t incx, Buffer<T>& y, std::int64_t incy);
  template <typename T>
  Event dot_async(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
                  const Buffer<T>& y, std::int64_t incy, T* result);
  Event sdsdot_async(std::int64_t n, float sb, const Buffer<float>& x,
                     std::int64_t incx, const Buffer<float>& y,
                     std::int64_t incy, float* result);
  template <typename T>
  Event nrm2_async(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
                   T* result);
  template <typename T>
  Event asum_async(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
                   T* result);
  template <typename T>
  Event iamax_async(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
                    std::int64_t* result);

  // Synchronous forms.
  template <typename T>
  void rot(std::int64_t n, Buffer<T>& x, std::int64_t incx, Buffer<T>& y,
           std::int64_t incy, T c, T s) {
    rot_async(n, x, incx, y, incy, c, s).wait();
  }
  template <typename T>
  void rot(std::int64_t n, Buffer<T>& x, Buffer<T>& y, T c, T s) {
    rot(n, x, 1, y, 1, c, s);
  }
  template <typename T>
  void rotm(std::int64_t n, Buffer<T>& x, std::int64_t incx, Buffer<T>& y,
            std::int64_t incy, const ref::RotmParam<T>& p) {
    rotm_async(n, x, incx, y, incy, p).wait();
  }
  template <typename T>
  void rotm(std::int64_t n, Buffer<T>& x, Buffer<T>& y,
            const ref::RotmParam<T>& p) {
    rotm(n, x, 1, y, 1, p);
  }
  template <typename T>
  void swap(std::int64_t n, Buffer<T>& x, std::int64_t incx, Buffer<T>& y,
            std::int64_t incy = 1) {
    swap_async(n, x, incx, y, incy).wait();
  }
  template <typename T>
  void swap(std::int64_t n, Buffer<T>& x, Buffer<T>& y) {
    swap(n, x, 1, y, 1);
  }
  template <typename T>
  void scal(std::int64_t n, T alpha, Buffer<T>& x, std::int64_t incx = 1) {
    scal_async(n, alpha, x, incx).wait();
  }
  template <typename T>
  void copy(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
            Buffer<T>& y, std::int64_t incy = 1) {
    copy_async(n, x, incx, y, incy).wait();
  }
  template <typename T>
  void copy(std::int64_t n, const Buffer<T>& x, Buffer<T>& y) {
    copy(n, x, 1, y, 1);
  }
  template <typename T>
  void axpy(std::int64_t n, T alpha, const Buffer<T>& x, std::int64_t incx,
            Buffer<T>& y, std::int64_t incy = 1) {
    axpy_async(n, alpha, x, incx, y, incy).wait();
  }
  template <typename T>
  void axpy(std::int64_t n, T alpha, const Buffer<T>& x, Buffer<T>& y) {
    axpy(n, alpha, x, 1, y, 1);
  }
  template <typename T>
  T dot(std::int64_t n, const Buffer<T>& x, std::int64_t incx,
        const Buffer<T>& y, std::int64_t incy = 1) {
    T r{};
    dot_async(n, x, incx, y, incy, &r).wait();
    return r;
  }
  template <typename T>
  T dot(std::int64_t n, const Buffer<T>& x, const Buffer<T>& y) {
    return dot(n, x, 1, y, 1);
  }
  float sdsdot(std::int64_t n, float sb, const Buffer<float>& x,
               std::int64_t incx, const Buffer<float>& y,
               std::int64_t incy = 1) {
    float r{};
    sdsdot_async(n, sb, x, incx, y, incy, &r).wait();
    return r;
  }
  float sdsdot(std::int64_t n, float sb, const Buffer<float>& x,
               const Buffer<float>& y) {
    return sdsdot(n, sb, x, 1, y, 1);
  }
  template <typename T>
  T nrm2(std::int64_t n, const Buffer<T>& x, std::int64_t incx = 1) {
    T r{};
    nrm2_async(n, x, incx, &r).wait();
    return r;
  }
  template <typename T>
  T asum(std::int64_t n, const Buffer<T>& x, std::int64_t incx = 1) {
    T r{};
    asum_async(n, x, incx, &r).wait();
    return r;
  }
  template <typename T>
  std::int64_t iamax(std::int64_t n, const Buffer<T>& x,
                     std::int64_t incx = 1) {
    std::int64_t r = -1;
    iamax_async(n, x, incx, &r).wait();
    return r;
  }

  // --- Level 2 ----------------------------------------------------------
  /// y = alpha op(A) x + beta y; A stored row-major rows x cols.
  template <typename T>
  Event gemv_async(Transpose trans, std::int64_t rows, std::int64_t cols,
                   T alpha, const Buffer<T>& a, const Buffer<T>& x,
                   std::int64_t incx, T beta, Buffer<T>& y,
                   std::int64_t incy);
  template <typename T>
  void gemv(Transpose trans, std::int64_t rows, std::int64_t cols, T alpha,
            const Buffer<T>& a, const Buffer<T>& x, std::int64_t incx,
            T beta, Buffer<T>& y, std::int64_t incy = 1) {
    gemv_async(trans, rows, cols, alpha, a, x, incx, beta, y, incy).wait();
  }
  template <typename T>
  void gemv(Transpose trans, std::int64_t rows, std::int64_t cols, T alpha,
            const Buffer<T>& a, const Buffer<T>& x, T beta, Buffer<T>& y) {
    gemv(trans, rows, cols, alpha, a, x, 1, beta, y, 1);
  }

  /// Solves op(A) x = b in place (x holds b on entry).
  template <typename T>
  Event trsv_async(Uplo uplo, Transpose trans, Diag diag, std::int64_t n,
                   const Buffer<T>& a, Buffer<T>& x, std::int64_t incx);
  template <typename T>
  void trsv(Uplo uplo, Transpose trans, Diag diag, std::int64_t n,
            const Buffer<T>& a, Buffer<T>& x, std::int64_t incx = 1) {
    trsv_async(uplo, trans, diag, n, a, x, incx).wait();
  }

  /// A += alpha x y^T.
  template <typename T>
  Event ger_async(std::int64_t rows, std::int64_t cols, T alpha,
                  const Buffer<T>& x, std::int64_t incx, const Buffer<T>& y,
                  std::int64_t incy, Buffer<T>& a);
  template <typename T>
  void ger(std::int64_t rows, std::int64_t cols, T alpha, const Buffer<T>& x,
           std::int64_t incx, const Buffer<T>& y, std::int64_t incy,
           Buffer<T>& a) {
    ger_async(rows, cols, alpha, x, incx, y, incy, a).wait();
  }
  template <typename T>
  void ger(std::int64_t rows, std::int64_t cols, T alpha, const Buffer<T>& x,
           const Buffer<T>& y, Buffer<T>& a) {
    ger(rows, cols, alpha, x, 1, y, 1, a);
  }

  /// A += alpha x x^T on the `uplo` triangle (generic full-stream update;
  /// the opposite triangle is preserved).
  template <typename T>
  Event syr_async(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& x,
                  std::int64_t incx, Buffer<T>& a);
  template <typename T>
  void syr(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& x,
           std::int64_t incx, Buffer<T>& a) {
    syr_async(uplo, n, alpha, x, incx, a).wait();
  }
  template <typename T>
  void syr(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& x,
           Buffer<T>& a) {
    syr(uplo, n, alpha, x, 1, a);
  }

  /// A += alpha (x y^T + y x^T) on the `uplo` triangle.
  template <typename T>
  Event syr2_async(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& x,
                   std::int64_t incx, const Buffer<T>& y, std::int64_t incy,
                   Buffer<T>& a);
  template <typename T>
  void syr2(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& x,
            std::int64_t incx, const Buffer<T>& y, std::int64_t incy,
            Buffer<T>& a) {
    syr2_async(uplo, n, alpha, x, incx, y, incy, a).wait();
  }
  template <typename T>
  void syr2(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& x,
            const Buffer<T>& y, Buffer<T>& a) {
    syr2(uplo, n, alpha, x, 1, y, 1, a);
  }

  // --- Level 3 ----------------------------------------------------------
  /// C = alpha op(A) op(B) + beta C; C is m x n, contraction k.
  template <typename T>
  Event gemm_async(Transpose ta, Transpose tb, std::int64_t m,
                   std::int64_t n, std::int64_t k, T alpha,
                   const Buffer<T>& a, const Buffer<T>& b, T beta,
                   Buffer<T>& c);
  template <typename T>
  void gemm(Transpose ta, Transpose tb, std::int64_t m, std::int64_t n,
            std::int64_t k, T alpha, const Buffer<T>& a, const Buffer<T>& b,
            T beta, Buffer<T>& c) {
    gemm_async(ta, tb, m, n, k, alpha, a, b, beta, c).wait();
  }

  /// C = alpha op(A) op(A)^T + beta C on the `uplo` triangle.
  template <typename T>
  Event syrk_async(Uplo uplo, Transpose trans, std::int64_t n,
                   std::int64_t k, T alpha, const Buffer<T>& a, T beta,
                   Buffer<T>& c);
  template <typename T>
  void syrk(Uplo uplo, Transpose trans, std::int64_t n, std::int64_t k,
            T alpha, const Buffer<T>& a, T beta, Buffer<T>& c) {
    syrk_async(uplo, trans, n, k, alpha, a, beta, c).wait();
  }

  /// C = alpha (op(A) op(B)^T + op(B) op(A)^T) + beta C on `uplo`.
  template <typename T>
  Event syr2k_async(Uplo uplo, Transpose trans, std::int64_t n,
                    std::int64_t k, T alpha, const Buffer<T>& a,
                    const Buffer<T>& b, T beta, Buffer<T>& c);
  template <typename T>
  void syr2k(Uplo uplo, Transpose trans, std::int64_t n, std::int64_t k,
             T alpha, const Buffer<T>& a, const Buffer<T>& b, T beta,
             Buffer<T>& c) {
    syr2k_async(uplo, trans, n, k, alpha, a, b, beta, c).wait();
  }

  /// Solves op(A) X = alpha B (Left) or X op(A) = alpha B (Right) in
  /// place; B is m x n and holds X on return.
  template <typename T>
  Event trsm_async(Side side, Uplo uplo, Transpose trans, Diag diag,
                   std::int64_t m, std::int64_t n, T alpha,
                   const Buffer<T>& a, Buffer<T>& b);
  template <typename T>
  void trsm(Side side, Uplo uplo, Transpose trans, Diag diag, std::int64_t m,
            std::int64_t n, T alpha, const Buffer<T>& a, Buffer<T>& b) {
    trsm_async(side, uplo, trans, diag, m, n, alpha, a, b).wait();
  }

  // --- Systolic PE-grid engine (in-grid ABFT) ---------------------------
  /// C = A * B (A: m x k, B: k x n) on the explicit PE-grid systolic
  /// engine (RoutineConfig::pe_rows x pe_cols). With the captured
  /// verification Options enabled and .in_grid(), the grid's checksum
  /// row/column rank detects a corrupted accumulator as each tile drains,
  /// localizes it to the victim PE, and (per .correct_single_faults())
  /// corrects single-fault tiles in place — the cheapest rung of the
  /// recovery ladder, below rollback/retry and CPU fallback, which
  /// multi-fault tiles still degrade to.
  template <typename T>
  Event gemm_systolic_async(std::int64_t m, std::int64_t n, std::int64_t k,
                            const Buffer<T>& a, const Buffer<T>& b,
                            Buffer<T>& c);
  template <typename T>
  void gemm_systolic(std::int64_t m, std::int64_t n, std::int64_t k,
                     const Buffer<T>& a, const Buffer<T>& b, Buffer<T>& c) {
    gemm_systolic_async(m, n, k, a, b, c).wait();
  }

  /// In-grid ABFT outcome of the most recently executed systolic command
  /// (localized faults with tile/PE coordinates) — what localization
  /// tests compare against FaultInjector::last_pe_victim().
  systolic::AbftReport last_grid_report() const;

  // --- Compiled streaming compositions -----------------------------------
  /// Compiles a host::Composition (mdag::compile: validity, partition,
  /// lowering, tap plan) and enqueues it as ONE command: every component's
  /// stream graph, a checksum tap on every compiled channel, a
  /// refblas fallback synthesized by topologically replaying the nodes,
  /// and the declared read/write sets — all under the same rollback /
  /// retry / CPU-fallback ladder as the built-in routines. An
  /// unexecutable description throws ConfigError here, at enqueue.
  template <typename T>
  Event run_composition_async(const Composition<T>& comp);
  template <typename T>
  void run_composition(const Composition<T>& comp) {
    run_composition_async(comp).wait();
  }
  /// The checksums a verified run of `comp` is compared against, from
  /// its bound buffers' current contents: one per compiled channel in
  /// plan order, then one per buffer writer in node order.
  template <typename T>
  std::vector<verify::ScalarCheck> composition_checksums(
      const Composition<T>& comp) const;

  // --- Specialized matrix routines ---------------------------------------
  // Implemented in terms of the generic routines, as the paper prescribes
  // (Sec. VI: "Specialized matrix routines (triangular and symmetric
  // matrices) must currently be implemented in terms of the generic
  // routines"): each is one command that expands the stored triangle and
  // launches the GEMV graph, verified by GEMV's checksum on the expanded
  // operand and falling back to the reference GEMV.

  /// y = alpha * A * x + beta * y for symmetric A stored in `uplo`.
  template <typename T>
  Event symv_async(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& a,
                   const Buffer<T>& x, std::int64_t incx, T beta,
                   Buffer<T>& y, std::int64_t incy);
  template <typename T>
  void symv(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& a,
            const Buffer<T>& x, std::int64_t incx, T beta, Buffer<T>& y,
            std::int64_t incy = 1) {
    symv_async(uplo, n, alpha, a, x, incx, beta, y, incy).wait();
  }
  template <typename T>
  void symv(Uplo uplo, std::int64_t n, T alpha, const Buffer<T>& a,
            const Buffer<T>& x, T beta, Buffer<T>& y) {
    symv(uplo, n, alpha, a, x, 1, beta, y, 1);
  }

  /// x = op(A) * x for triangular A (`uplo`, `diag`).
  template <typename T>
  Event trmv_async(Uplo uplo, Transpose trans, Diag diag, std::int64_t n,
                   const Buffer<T>& a, Buffer<T>& x, std::int64_t incx);
  template <typename T>
  void trmv(Uplo uplo, Transpose trans, Diag diag, std::int64_t n,
            const Buffer<T>& a, Buffer<T>& x, std::int64_t incx = 1) {
    trmv_async(uplo, trans, diag, n, a, x, incx).wait();
  }

  // --- Batched fully-unrolled routines (Table V) -------------------------
  /// C[i] = alpha * A[i] * B[i] for `batch` contiguous size x size
  /// problems; the fully-unrolled module retires one problem per cycle.
  template <typename T>
  Event gemm_batched_async(std::int64_t size, std::int64_t batch, T alpha,
                           const Buffer<T>& a, const Buffer<T>& b,
                           Buffer<T>& c);
  template <typename T>
  void gemm_batched(std::int64_t size, std::int64_t batch, T alpha,
                    const Buffer<T>& a, const Buffer<T>& b, Buffer<T>& c) {
    gemm_batched_async(size, batch, alpha, a, b, c).wait();
  }

  /// X[i] = alpha * inv(L[i]) * X[i] for `batch` contiguous lower
  /// triangular (non-unit) systems stored dense.
  template <typename T>
  Event trsm_batched_async(std::int64_t size, std::int64_t batch, T alpha,
                           const Buffer<T>& a, Buffer<T>& x);
  template <typename T>
  void trsm_batched(std::int64_t size, std::int64_t batch, T alpha,
                    const Buffer<T>& a, Buffer<T>& x) {
    trsm_batched_async(size, batch, alpha, a, x).wait();
  }

 private:
  friend class Event;
  void wait_seq(std::uint64_t seq);
  bool done_seq(std::uint64_t seq) const;
  CommandStatus status_seq(std::uint64_t seq) const;

  /// Wraps a routine command body with per-attempt pool placement (and
  /// health reporting), fault injection (launch failures, detected
  /// transfer corruption, wedges, silent corruption), the captured
  /// watchdog, and — when verification or the taint trap is armed —
  /// non-finite taint tracking across the command's graphs.
  std::function<void()> wrap_work(
      std::uint64_t seq, std::function<void()> work,
      std::vector<const void*> reads, std::vector<const void*> writes,
      bool verify_armed, bool taint_record, bool taint_trap,
      std::function<std::uint64_t(std::uint64_t, std::uint64_t)> steer);
  /// Snapshot/rollback/fallback hooks for the retry machinery.
  CommandHooks make_hooks(const Command& cmd);
  /// Turns a Command's checker into the executor's: the returned hook
  /// runs `checker` and wraps the check it returns so it runs at
  /// `tol_scale`, a VerificationError carries the taint provenance
  /// (which module first pushed NaN/Inf) when one exists, the adaptive
  /// sampling controller is fed (raise the live rate on a rejection,
  /// decay it on a clean check), and the verdict reaches the device pool
  /// (per-device stats; breaker per `feed_breaker`).
  std::function<std::function<void()>()> wrap_verify(
      std::function<ResultCheck()> checker, double tol_scale, bool adaptive,
      bool feed_breaker);

  /// Credits `cycles` of device time to the running attempt (if any) and
  /// to last_cycles()/total_cycles(): the one place graph launches and
  /// the systolic engine report their cycles.
  void credit_cycles(std::uint64_t cycles);
  void store_grid_report(const systolic::AbftReport& report);

  /// Wraps the single-device constructor's board in a pool of one, so
  /// pool_ is never null and both constructors share one runtime path.
  std::unique_ptr<DevicePool> pool_owned_;
  DevicePool* pool_;
  Device* dev_;  ///< primary (pool device 0)
  stream::Mode mode_;
  RoutineConfig cfg_;
  stream::Watchdog watchdog_;
  RetryPolicy retry_;
  DepGraph deps_;
  std::unique_ptr<Executor> exec_;
  std::shared_ptr<trace::Recorder> trace_;  // null = tracing off
  std::uint64_t enqueued_ = 0;
  std::atomic<std::uint64_t> last_cycles_{0};
  std::atomic<std::uint64_t> total_cycles_{0};
  /// Live Sampled-mode rate under verify::Options::adaptive(); < 0 means
  /// "not yet initialized — use the configured base rate".
  mutable std::atomic<double> adaptive_rate_{-1.0};
  mutable std::mutex grid_mu_;
  systolic::AbftReport last_grid_report_;
};

/// RAII override of a Context's RoutineConfig: applies `cfg` on
/// construction and restores the previous knobs on destruction. Because
/// commands capture the configuration when enqueued, a guard that only
/// spans the enqueue is enough — including the temporary in
/// `ctx.with(cfg)->gemm(...)`.
class ConfigGuard {
 public:
  ConfigGuard(Context& ctx, const RoutineConfig& cfg)
      : ctx_(&ctx), saved_(ctx.config()) {
    ctx.config() = cfg;
  }
  ~ConfigGuard() {
    if (ctx_ != nullptr) ctx_->config() = saved_;
  }
  ConfigGuard(ConfigGuard&& o) noexcept
      : ctx_(std::exchange(o.ctx_, nullptr)), saved_(o.saved_) {}
  ConfigGuard& operator=(ConfigGuard&&) = delete;
  ConfigGuard(const ConfigGuard&) = delete;
  ConfigGuard& operator=(const ConfigGuard&) = delete;

  /// The guarded context, for inline use: `ctx.with(cfg)->gemm(...)`.
  Context* operator->() { return ctx_; }
  Context& context() { return *ctx_; }

 private:
  Context* ctx_;
  RoutineConfig saved_;
};

inline ConfigGuard Context::with(const RoutineConfig& cfg) {
  return ConfigGuard(*this, cfg);
}

}  // namespace fblas::host
