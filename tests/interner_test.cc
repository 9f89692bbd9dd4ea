// Interner tests: dense ids in first-intern order across the key-chunk,
// view-segment and table-growth boundaries, and concurrent Intern, Lookup
// and KeyForId on one fresh interner (also run under ThreadSanitizer in
// CI).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/interner.h"

namespace blockoptr {
namespace {

std::string Key(int i) {
  std::string key = "cc~key";
  key += std::to_string(i);
  return key;
}

TEST(InternerTest, IdsAreDenseInFirstInternOrder) {
  Interner interner;
  const std::string longer_than_a_chunk(5000, 'x');
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.Intern(""), 1u);
  EXPECT_EQ(interner.Intern(longer_than_a_chunk), 2u);
  EXPECT_EQ(interner.Intern("a"), 0u);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(interner.Intern(Key(i)), 3u + i);
  ASSERT_EQ(interner.size(), 3003u);
  EXPECT_EQ(interner.KeyForId(0), "a");
  EXPECT_EQ(interner.KeyForId(1), "");
  EXPECT_EQ(interner.KeyForId(2), longer_than_a_chunk);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(interner.KeyForId(3u + i), Key(i));
    EXPECT_EQ(interner.Lookup(Key(i)), 3u + i);
  }
  EXPECT_EQ(interner.Lookup(""), 1u);
  EXPECT_EQ(interner.Lookup("b"), kInvalidKeyId);
  EXPECT_EQ(interner.size(), 3003u);  // Lookup never interns
}

// Eight writers intern overlapping halves of 120,000 keys (each key by
// four writers, in different orders; the table grows ten times) while two
// readers check that every id they can see maps back to its key.
TEST(InternerTest, ConcurrentInternLookupAndKeyForIdAgree) {
  constexpr int kKeys = 120000;
  constexpr int kWriters = 8;
  Interner interner;
  std::vector<std::vector<KeyId>> got(kWriters,
                                      std::vector<KeyId>(kKeys, kInvalidKeyId));
  std::atomic<bool> writing{true};
  std::atomic<int> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int i = r; writing.load(); i = (i + 7919) % kKeys) {
        const std::string key = Key(i);
        const KeyId id = interner.Lookup(key);
        if (id != kInvalidKeyId && interner.KeyForId(id) != key) ++bad_reads;
        const size_t n = interner.size();
        if (n == 0) continue;
        const KeyId any = static_cast<KeyId>(i % n);
        if (interner.Lookup(interner.KeyForId(any)) != any) ++bad_reads;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const int start = w * (kKeys / kWriters);
      for (int j = 0; j < kKeys / 2; ++j) {
        const int i = (start + (w % 2 ? kKeys / 2 - 1 - j : j)) % kKeys;
        got[w][i] = interner.Intern(Key(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  writing = false;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);

  ASSERT_EQ(interner.size(), static_cast<size_t>(kKeys));
  std::vector<int> owners(kKeys, -1);  // id -> key index
  for (int i = 0; i < kKeys; ++i) {
    const KeyId id = interner.Lookup(Key(i));
    ASSERT_LT(id, static_cast<KeyId>(kKeys)) << Key(i);
    EXPECT_EQ(owners[id], -1) << "id " << id << " names two keys";
    owners[id] = i;
    EXPECT_EQ(interner.Intern(Key(i)), id);
    EXPECT_EQ(interner.KeyForId(id), Key(i));
    for (int w = 0; w < kWriters; ++w) {
      if (got[w][i] != kInvalidKeyId) {
        EXPECT_EQ(got[w][i], id) << Key(i);
      }
    }
  }
  EXPECT_EQ(interner.Lookup("cc~never-interned"), kInvalidKeyId);
  EXPECT_EQ(interner.size(), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace blockoptr
