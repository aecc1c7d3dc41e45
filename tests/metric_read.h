// Checked registry reads for tests.
//
// RegistrySnapshot::Value returns 0 for a series that does not exist, so
// EXPECT_EQ(snap.Value("pd2gl_clustr_retries"), 0u) passes on a typo and
// proves nothing. These helpers fail the calling test instead when the
// named series is absent; every test assertion on a registry counter
// reads through them.
#pragma once

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace platod2gl {

/// Value of the counter or gauge series (name, labels); fails the test
/// (and returns 0) when no such series is registered.
inline std::uint64_t MetricValue(const obs::RegistrySnapshot& snap,
                                 const std::string& name,
                                 const obs::Labels& labels = {}) {
  const obs::MetricPoint* p = snap.Find(name, labels);
  if (p == nullptr) {
    ADD_FAILURE() << "no registry series named " << name;
    return 0;
  }
  return p->value;
}

inline std::uint64_t MetricValue(const obs::MetricRegistry& registry,
                                 const std::string& name,
                                 const obs::Labels& labels = {}) {
  return MetricValue(registry.Snapshot(), name, labels);
}

/// Sum of `name` across every label combination; fails the test (and
/// returns 0) when no series of that name is registered.
inline std::uint64_t MetricSum(const obs::RegistrySnapshot& snap,
                               const std::string& name) {
  bool found = false;
  for (const obs::MetricPoint& p : snap.points) found |= p.name == name;
  if (!found) {
    ADD_FAILURE() << "no registry series named " << name;
    return 0;
  }
  return snap.SumAcrossLabels(name);
}

}  // namespace platod2gl
