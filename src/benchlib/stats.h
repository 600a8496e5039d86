#ifndef WIREFRAME_BENCHLIB_STATS_H_
#define WIREFRAME_BENCHLIB_STATS_H_

#include <vector>

namespace wireframe {

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace wireframe

#endif  // WIREFRAME_BENCHLIB_STATS_H_
