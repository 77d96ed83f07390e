// Kernel execution engine: one packed, register-tiled GEMM driver behind
// all dense matrix products (matmul / matmul_bt / matmul_at and the im2col
// convolution lowering).
//
// The engine has two backends:
//  - kReference: the original cache-blocked scalar loops, kept as the
//    always-available correctness baseline (and the fast path for tiny
//    products where packing overhead dominates).
//  - kTiled: BLIS-style five-loop GEMM. A and B are packed into contiguous
//    panels (A in MR-row panels, B in NR-column panels, zero-padded at the
//    edges), and a 6×16 register-tile micro-kernel runs the unrolled
//    FMA-friendly inner loop. On x86-64 with AVX2+FMA an intrinsics
//    micro-kernel is selected at runtime; elsewhere a portable fixed-tile
//    kernel is used. Row panels are distributed over a shared process-wide
//    kernel ThreadPool; calls arriving from inside any pool worker (e.g.
//    the runner's per-client parallel_for) fall back to serial execution
//    (see ThreadPool::on_worker_thread) so nested parallelism never
//    oversubscribes or deadlocks.
//
// Backend and thread count come from the process-wide KernelConfig
// (default: tiled, hardware concurrency), set programmatically — RunConfig
// plumbs them through the runners. Results are bitwise deterministic for a
// fixed backend on a fixed machine regardless of thread count: work is split
// along C's rows, every C element is accumulated in the same order by the
// same micro-kernel no matter which thread owns it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace appfl::util {
class ThreadPool;
}  // namespace appfl::util

namespace appfl::tensor {

enum class KernelBackend {
  kReference,  // original scalar loops (correctness baseline)
  kTiled,      // packed + register-tiled + (optionally) parallel
};

std::string to_string(KernelBackend backend);

/// Parses "reference" / "tiled"; throws appfl::Error otherwise.
KernelBackend parse_kernel_backend(const std::string& name);

struct KernelConfig {
  KernelBackend backend = KernelBackend::kTiled;
  std::size_t threads = 0;  // 0 = hardware concurrency
};

/// Current process-wide engine configuration.
KernelConfig kernel_config();

void set_kernel_config(const KernelConfig& config);

/// RunConfig-level plumbing: backend "auto" keeps the current setting,
/// threads 0 keeps the current setting. Throws on an unknown backend name.
void apply_kernel_config(const std::string& backend, std::size_t threads);

/// Operand transposition for the raw driver. Storage is always row-major;
/// kYes means the logical operand is the transpose of what is stored.
enum class Trans { kNo, kYes };

/// C[m,n] = op(A)·op(B), overwriting C. `lda`/`ldb` are the row strides of
/// the *stored* matrices: op==kNo stores m×k (lda=k-ish), op==kYes stores
/// k×m (lda=m-ish). Dispatches on kernel_config().backend, with tiny
/// products routed to the reference loops regardless.
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c);

/// The reference loops, callable directly (tests, benchmarks).
void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c);

/// The tiled path, callable directly regardless of configured backend.
void gemm_tiled(Trans ta, Trans tb, std::size_t m, std::size_t n,
                std::size_t k, const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float* c);

/// The process-wide kernel ThreadPool, (re)built lazily to the configured
/// size (kernel_config().threads, 0 = hardware concurrency). Shared by the
/// GEMM driver, the comm data path (chunked CRC32) and the deterministic
/// aggregation reductions so the process never runs more than one set of
/// compute workers. Callers must consult ThreadPool::on_worker_thread()
/// first and fall back to serial execution when already inside a worker.
std::shared_ptr<util::ThreadPool> kernel_pool();

/// Number of row-panel chunks the most recent gemm on the calling thread
/// fanned out (1 = ran serially). Diagnostic for the nested-parallelism
/// tests: inside a pool worker this must stay 1.
std::size_t last_gemm_chunks();

/// True when the selected micro-kernel uses AVX2+FMA intrinsics (runtime
/// CPU dispatch succeeded). Informational — shows up in benchmark output.
bool gemm_uses_avx2();

}  // namespace appfl::tensor
