#include "common/interner.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

namespace blockoptr {

namespace {

constexpr uint64_t kTagMask = 0xFFFFFFFF00000000ull;
constexpr size_t kInitialSlots = 256;
constexpr size_t kChunkBytes = 4096;

uint64_t Hash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

Interner::Interner() {
  tables_.push_back(std::make_unique<Table>(kInitialSlots));
  table_.store(tables_.back().get(), std::memory_order_relaxed);
}

Interner::~Interner() {
  for (auto& segment : segments_) {
    delete[] segment.load(std::memory_order_relaxed);
  }
}

std::pair<int, size_t> Interner::Locate(KeyId id) {
  const uint64_t q = (uint64_t{id} >> kFirstSegmentBits) + 1;
  const int s = std::bit_width(q) - 1;
  return {s, id - (((uint64_t{1} << s) - 1) << kFirstSegmentBits)};
}

// Writers hold insert_mu_; the release store publishes the id's view.
void Interner::Insert(Table& table, uint64_t hash, KeyId id) {
  const size_t mask = table.slots.size() - 1;
  size_t i = hash & mask;
  while (table.slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & mask;
  }
  table.slots[i].store((hash & kTagMask) | (uint64_t{id} + 1),
                       std::memory_order_release);
}

KeyId Interner::Find(const Table& table, std::string_view key,
                     uint64_t hash) const {
  const size_t mask = table.slots.size() - 1;
  // The table is at most half full, so every probe ends at an empty slot.
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = table.slots[i].load(std::memory_order_acquire);
    if (slot == 0) return kInvalidKeyId;
    if ((slot & kTagMask) == (hash & kTagMask)) {
      const KeyId id = static_cast<KeyId>(slot) - 1;
      if (KeyForId(id) == key) return id;
    }
  }
}

std::string_view Interner::CopyKey(std::string_view key) {
  if (key.size() > chunk_left_) {
    chunk_left_ = std::max(kChunkBytes, key.size());
    chunks_.push_back(std::make_unique<char[]>(chunk_left_));
    chunk_free_ = chunks_.back().get();
  }
  std::copy(key.begin(), key.end(), chunk_free_);
  std::string_view copy(chunk_free_, key.size());
  chunk_free_ += key.size();
  chunk_left_ -= key.size();
  return copy;
}

KeyId Interner::Intern(std::string_view key) {
  const uint64_t hash = Hash(key);
  KeyId id = Find(*table_.load(std::memory_order_acquire), key, hash);
  if (id != kInvalidKeyId) return id;

  std::lock_guard lock(insert_mu_);
  // Re-check: another thread may have interned it since the probe above.
  Table* table = table_.load(std::memory_order_relaxed);
  id = Find(*table, key, hash);
  if (id != kInvalidKeyId) return id;
  id = size_.load(std::memory_order_relaxed);

  // The view goes in place before any slot names the id.
  const auto [s, offset] = Locate(id);
  if (offset == 0) {
    const size_t views = size_t{1} << (kFirstSegmentBits + s);
    segments_[s].store(new std::string_view[views], std::memory_order_release);
  }
  segments_[s].load(std::memory_order_relaxed)[offset] = CopyKey(key);

  if ((uint64_t{id} + 1) * 2 > table->slots.size()) {
    // Readers may still probe the old table: it stays alive in tables_.
    tables_.push_back(std::make_unique<Table>(table->slots.size() * 2));
    Table* grown = tables_.back().get();
    for (KeyId old = 0; old < id; ++old) {
      Insert(*grown, Hash(KeyForId(old)), old);
    }
    table_.store(grown, std::memory_order_release);
    table = grown;
  }
  Insert(*table, hash, id);
  size_.store(id + 1, std::memory_order_release);
  return id;
}

KeyId Interner::Lookup(std::string_view key) const {
  return Find(*table_.load(std::memory_order_acquire), key, Hash(key));
}

std::string_view Interner::KeyForId(KeyId id) const {
  const auto [s, offset] = Locate(id);
  return segments_[s].load(std::memory_order_acquire)[offset];
}

size_t Interner::size() const { return size_.load(std::memory_order_acquire); }

Interner& GlobalKeyInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

Interner& GlobalNameInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

}  // namespace blockoptr
