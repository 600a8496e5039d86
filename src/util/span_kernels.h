#ifndef WIREFRAME_UTIL_SPAN_KERNELS_H_
#define WIREFRAME_UTIL_SPAN_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/common.h"

namespace wireframe {

/// Kernels over sorted NodeId spans — the primitives the frozen-CSR read
/// path (util/csr.h) is built from. Phase 2, chord filtering, and bushy
/// leaf merges spend most of their cycles in exactly three operations:
/// membership probe, batched membership probe, and sorted-set
/// intersection. This layer gives each one a tuned implementation:
///
///   * Intersection is size-ratio-adaptive: a linear merge for
///     near-equal spans (vectorized with AVX2 when available), a
///     galloping binary probe of the larger side once one span is
///     >= kGallopRatio times smaller — the crossover where probing
///     O(small * log large) beats scanning O(small + large).
///   * The AVX2 merge compares an 8-lane block of each side against all
///     8 rotations of the other and compacts the matched lanes with a
///     shuffle table — no per-element branches, so skewed selectivities
///     do not stall the pipeline the way the scalar merge's mispredicted
///     advance branches do.
///   * Dispatch is resolved once per process: compile-time (the AVX2
///     translation unit exists only when the toolchain supports -mavx2
///     and WIREFRAME_DISABLE_AVX2 is OFF) and run-time (cpuid), with a
///     scalar override for tests and benchmarks. Scalar and AVX2 paths
///     return byte-identical output on sorted distinct input, so the
///     choice is invisible to results.
///
/// All kernels require their input spans to be sorted ascending and
/// duplicate-free — exactly what Csr stores. Results on inputs violating
/// that are unspecified (the AVX2 merge, for instance, may emit a
/// duplicate match twice).

/// Which intersection body IntersectSorted runs.
enum class KernelDispatch : uint8_t { kScalar = 0, kAvx2 = 1 };

/// True iff this binary contains the AVX2 kernel TU (toolchain supported
/// -mavx2 and WIREFRAME_DISABLE_AVX2 was OFF at configure time).
bool KernelAvx2Compiled();

/// True iff the running CPU reports AVX2 (always false off x86).
bool CpuHasAvx2();

/// Pins IntersectSorted to the scalar body regardless of CPU support
/// (tests and the bench baselines). Setting the WIREFRAME_FORCE_SCALAR_KERNELS
/// environment variable (to anything but "0") before first use has the
/// same effect and cannot be un-forced at run time.
void ForceScalarKernels(bool force);
bool ScalarKernelsForced();

/// The dispatch the next kernel call will take.
KernelDispatch ActiveKernelDispatch();

/// "scalar" or "avx2" — bench provenance and logs.
const char* KernelDispatchName();

/// One-line provenance string for bench JSON meta
/// ("avx2_supported=<0|1> avx2_compiled=<0|1> dispatch=<name>"): two
/// recordings whose strings differ were not measuring the same code.
std::string KernelCpuFeaturesMeta();

/// Writable slots IntersectSorted's output buffer must have beyond
/// min(|a|, |b|): the AVX2 body compacts matches with full 8-lane stores,
/// so the final store may touch up to 7 slots past the last real match.
inline constexpr size_t kIntersectPad = 8;

/// Size ratio at which intersection switches from merging to galloping
/// probes of the larger side.
inline constexpr size_t kGallopRatio = 8;

/// First index i >= from with data[i] >= x, or n if none, found by
/// exponential probing from `from` followed by binary search inside the
/// bracketed window: O(log distance) instead of O(log n), which is what
/// makes a monotone batched probe cheaper than independent binary
/// searches.
size_t GallopLowerBound(const NodeId* data, size_t n, size_t from, NodeId x);

/// Index of the first element of sorted `span` that is >= value, or
/// span.size() if none (branch-free binary search).
size_t SpanLowerBound(std::span<const NodeId> span, NodeId value);

/// True iff sorted `span` contains `value` (branch-free binary search).
bool SpanContains(std::span<const NodeId> span, NodeId value);

/// Intersects two sorted duplicate-free spans into `out` (ascending).
/// Returns the match count. `out` must have capacity
/// min(a.size(), b.size()) + kIntersectPad and must not alias the inputs.
size_t IntersectSorted(std::span<const NodeId> a, std::span<const NodeId> b,
                       NodeId* out);

/// The portable reference body of IntersectSorted (adaptive
/// gallop/merge, no SIMD). Same contract; always available — every
/// rewired call site keeps this as its serial reference path and the
/// property tests certify the dispatched body against it.
size_t IntersectSortedScalar(std::span<const NodeId> a,
                             std::span<const NodeId> b, NodeId* out);

/// Batched membership: hits[i] = 1 iff `span` contains probes[i], else 0.
/// `probes` should be sorted ascending — the span is then walked
/// monotonically with one galloping step per probe instead of a full
/// binary search each. Unsorted probes stay correct (the walk restarts)
/// but lose the monotonicity win.
void ContainsManySorted(std::span<const NodeId> span,
                        std::span<const NodeId> probes, uint8_t* hits);

/// Best-effort read prefetch (no-op where unsupported). The span-gather
/// loops use it to pull the next row's offsets/neighbors while the
/// current row is processed.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/1);
#else
  (void)address;
#endif
}

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_SPAN_KERNELS_H_
