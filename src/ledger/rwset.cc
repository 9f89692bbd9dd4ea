#include "ledger/rwset.h"

#include <algorithm>

namespace blockoptr {

namespace {
void SortDedup(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

std::vector<std::string> ReadWriteSet::AccessedKeys() const {
  std::vector<std::string> keys = ReadKeys();
  for (const auto& w : writes) keys.push_back(w.key);
  SortDedup(keys);
  return keys;
}

std::vector<std::string> ReadWriteSet::ReadKeys() const {
  std::vector<std::string> keys;
  keys.reserve(reads.size());
  for (const auto& r : reads) keys.push_back(r.key);
  for (const auto& rq : range_queries) {
    for (const auto& r : rq.results) keys.push_back(r.key);
  }
  SortDedup(keys);
  return keys;
}

std::vector<std::string> ReadWriteSet::WriteKeys() const {
  std::vector<std::string> keys;
  keys.reserve(writes.size());
  for (const auto& w : writes) keys.push_back(w.key);
  SortDedup(keys);
  return keys;
}

bool ReadWriteSet::HasWriteTo(const std::string& key) const {
  return std::any_of(writes.begin(), writes.end(),
                     [&](const WriteItem& w) { return w.key == key; });
}

bool ReadWriteSet::HasReadOf(const std::string& key) const {
  if (std::any_of(reads.begin(), reads.end(),
                  [&](const ReadItem& r) { return r.key == key; })) {
    return true;
  }
  for (const auto& rq : range_queries) {
    if (std::any_of(rq.results.begin(), rq.results.end(),
                    [&](const ReadItem& r) { return r.key == key; })) {
      return true;
    }
  }
  return false;
}

}  // namespace blockoptr
