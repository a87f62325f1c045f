#include "eval/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace pcnn::eval {

double pearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("pearsonCorrelation: length mismatch");
  }
  const std::size_t n = a.size();
  if (n == 0) return 0.0;
  double meanA = 0.0, meanB = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    meanA += a[i];
    meanB += b[i];
  }
  meanA /= static_cast<double>(n);
  meanB /= static_cast<double>(n);
  double cov = 0.0, varA = 0.0, varB = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - meanA;
    const double db = b[i] - meanB;
    cov += da * db;
    varA += da * da;
    varB += db * db;
  }
  if (varA <= 0.0 || varB <= 0.0) return 0.0;
  return cov / std::sqrt(varA * varB);
}

double pearsonCorrelation(const std::vector<float>& a,
                          const std::vector<float>& b) {
  std::vector<double> da(a.begin(), a.end());
  std::vector<double> db(b.begin(), b.end());
  return pearsonCorrelation(da, db);
}

double accuracy(const std::vector<int>& predicted,
                const std::vector<int>& actual) {
  if (predicted.size() != actual.size()) {
    throw std::invalid_argument("accuracy: length mismatch");
  }
  if (predicted.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == actual[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

}  // namespace pcnn::eval
