#pragma once

#include <vector>

namespace pcnn::eval {

/// Pearson correlation coefficient between two equal-length sequences.
/// Returns 0 when either sequence has zero variance or they are empty.
/// This is the metric the paper uses to validate the TrueNorth NApprox HoG
/// against its software model (">99.5% correlation", Section 3.1).
double pearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Convenience overload for float data.
double pearsonCorrelation(const std::vector<float>& a,
                          const std::vector<float>& b);

/// Fraction of equal elements in two label sequences (classifier accuracy).
double accuracy(const std::vector<int>& predicted,
                const std::vector<int>& actual);

/// Mean of a sequence (0 for empty input).
double mean(const std::vector<double>& values);

/// Sample standard deviation (0 for fewer than two values).
double stddev(const std::vector<double>& values);

}  // namespace pcnn::eval
