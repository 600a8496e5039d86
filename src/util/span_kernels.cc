#include "util/span_kernels.h"

#include <algorithm>
#include <cstdlib>

#include "util/span_kernels_internal.h"

namespace wireframe {

namespace {

std::atomic<bool> g_force_scalar{false};

/// WIREFRAME_FORCE_SCALAR_KERNELS is latched on first use: dispatch must
/// never flip mid-run underneath a bench recording.
bool EnvForcesScalar() {
  static const bool forced = [] {
    const char* value = std::getenv("WIREFRAME_FORCE_SCALAR_KERNELS");
    return value != nullptr && value[0] != '\0' && value[0] != '0';
  }();
  return forced;
}

/// Index of the first element >= x, branch-free (cmov, no mispredicted
/// comparisons — the probe sides of chord filtering are selectivity-
/// skewed, which is the worst case for a branching binary search).
size_t BranchlessLowerBound(const NodeId* data, size_t n, NodeId x) {
  const NodeId* base = data;
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] < x ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - data) + (n == 1 && *base < x ? 1 : 0);
}

/// Linear merge intersection — the near-equal-size workhorse.
size_t MergeIntersect(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                      NodeId* out) {
  size_t i = 0;
  size_t j = 0;
  size_t k = 0;
  while (i < na && j < nb) {
    const NodeId av = a[i];
    const NodeId bv = b[j];
    if (av == bv) {
      out[k++] = av;
      ++i;
      ++j;
    } else if (av < bv) {
      ++i;
    } else {
      ++j;
    }
  }
  return k;
}

/// Galloping intersection: probe each element of the small span into the
/// large one, advancing monotonically. O(small * log gap) — wins once
/// large/small >= kGallopRatio.
size_t GallopIntersect(std::span<const NodeId> small,
                       std::span<const NodeId> large, NodeId* out) {
  size_t pos = 0;
  size_t k = 0;
  for (const NodeId x : small) {
    pos = GallopLowerBound(large.data(), large.size(), pos, x);
    if (pos == large.size()) break;
    if (large[pos] == x) {
      out[k++] = x;
      ++pos;
    }
  }
  return k;
}

}  // namespace

bool KernelAvx2Compiled() {
#if defined(WIREFRAME_HAVE_AVX2_KERNELS)
  return true;
#else
  return false;
#endif
}

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

void ForceScalarKernels(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool ScalarKernelsForced() {
  return EnvForcesScalar() || g_force_scalar.load(std::memory_order_relaxed);
}

KernelDispatch ActiveKernelDispatch() {
  if (KernelAvx2Compiled() && CpuHasAvx2() && !ScalarKernelsForced()) {
    return KernelDispatch::kAvx2;
  }
  return KernelDispatch::kScalar;
}

const char* KernelDispatchName() {
  return ActiveKernelDispatch() == KernelDispatch::kAvx2 ? "avx2" : "scalar";
}

std::string KernelCpuFeaturesMeta() {
  std::string meta = "avx2_supported=";
  meta += CpuHasAvx2() ? '1' : '0';
  meta += " avx2_compiled=";
  meta += KernelAvx2Compiled() ? '1' : '0';
  meta += " dispatch=";
  meta += KernelDispatchName();
  return meta;
}

size_t GallopLowerBound(const NodeId* data, size_t n, size_t from, NodeId x) {
  if (from >= n || data[from] >= x) return from;
  // data[lo] < x holds throughout; double the step until the window
  // [lo + 1, hi) brackets the answer.
  size_t lo = from;
  size_t step = 1;
  while (lo + step < n && data[lo + step] < x) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step);
  ++lo;
  return lo + BranchlessLowerBound(data + lo, hi - lo, x);
}

size_t SpanLowerBound(std::span<const NodeId> span, NodeId value) {
  return BranchlessLowerBound(span.data(), span.size(), value);
}

bool SpanContains(std::span<const NodeId> span, NodeId value) {
  const size_t i = SpanLowerBound(span, value);
  return i < span.size() && span[i] == value;
}

size_t IntersectSortedScalar(std::span<const NodeId> a,
                             std::span<const NodeId> b, NodeId* out) {
  if (a.empty() || b.empty()) return 0;
  const std::span<const NodeId> small = a.size() <= b.size() ? a : b;
  const std::span<const NodeId> large = a.size() <= b.size() ? b : a;
  if (large.size() >= kGallopRatio * small.size()) {
    return GallopIntersect(small, large, out);
  }
  return MergeIntersect(a.data(), a.size(), b.data(), b.size(), out);
}

size_t IntersectSorted(std::span<const NodeId> a, std::span<const NodeId> b,
                       NodeId* out) {
  if (a.empty() || b.empty()) return 0;
  // The gallop crossover is dispatch-independent: probing beats any merge,
  // vectorized or not, once the size ratio is extreme.
  const std::span<const NodeId> small = a.size() <= b.size() ? a : b;
  const std::span<const NodeId> large = a.size() <= b.size() ? b : a;
  if (large.size() >= kGallopRatio * small.size()) {
    return GallopIntersect(small, large, out);
  }
#if defined(WIREFRAME_HAVE_AVX2_KERNELS)
  if (ActiveKernelDispatch() == KernelDispatch::kAvx2) {
    return internal::IntersectSortedAvx2(a.data(), a.size(), b.data(),
                                         b.size(), out);
  }
#endif
  return MergeIntersect(a.data(), a.size(), b.data(), b.size(), out);
}

void ContainsManySorted(std::span<const NodeId> span,
                        std::span<const NodeId> probes, uint8_t* hits) {
  size_t pos = 0;
  NodeId prev = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const NodeId x = probes[i];
    // An out-of-order probe restarts the walk (correct, just slower);
    // sorted batches never take this branch.
    if (x < prev) pos = 0;
    pos = GallopLowerBound(span.data(), span.size(), pos, x);
    hits[i] = pos < span.size() && span[pos] == x ? 1 : 0;
    prev = x;
  }
}

}  // namespace wireframe
