#include "chaincode/tx_context.h"

#include <algorithm>
#include <cassert>

namespace blockoptr {

TxContext::TxContext(const VersionedStore* store, std::string ns)
    : store_(store) {
  ns_stack_.push_back(std::move(ns));
}

std::string TxContext::Namespaced(std::string_view key) const {
  return ns_stack_.back() + "~" + std::string(key);
}

void TxContext::RecordRead(const std::string& full_key,
                           const std::optional<Version>& version) {
  // One read item per key (Fabric records the first observed version).
  auto it = std::find_if(rwset_.reads.begin(), rwset_.reads.end(),
                         [&](const ReadItem& r) { return r.key == full_key; });
  if (it == rwset_.reads.end()) {
    rwset_.reads.push_back(ReadItem{full_key, version});
  }
}

std::optional<std::string> TxContext::GetState(std::string_view key) {
  std::string full = Namespaced(key);
  const VersionedValue* vv = store_->Peek(full);
  RecordRead(full, vv != nullptr ? std::optional<Version>(vv->version)
                                 : std::nullopt);
  if (vv == nullptr) return std::nullopt;
  return vv->value;
}

void TxContext::PutState(std::string_view key, std::string_view value) {
  std::string full = Namespaced(key);
  auto it =
      std::find_if(rwset_.writes.begin(), rwset_.writes.end(),
                   [&](const WriteItem& w) { return w.key == full; });
  if (it != rwset_.writes.end()) {
    it->value = std::string(value);
    it->is_delete = false;
    return;
  }
  rwset_.writes.push_back(WriteItem{std::move(full), std::string(value),
                                    /*is_delete=*/false});
}

void TxContext::DeleteState(std::string_view key) {
  std::string full = Namespaced(key);
  auto it =
      std::find_if(rwset_.writes.begin(), rwset_.writes.end(),
                   [&](const WriteItem& w) { return w.key == full; });
  if (it != rwset_.writes.end()) {
    it->value.clear();
    it->is_delete = true;
    return;
  }
  rwset_.writes.push_back(WriteItem{std::move(full), "", /*is_delete=*/true});
}

std::vector<std::pair<std::string, std::string>> TxContext::GetStateByRange(
    std::string_view start_key, std::string_view end_key) {
  std::string full_start = Namespaced(start_key);
  // An empty end key scans to the end of this chaincode's namespace; the
  // '~' separator sorts below 0x7F so "<ns>\x7f" upper-bounds it.
  std::string full_end =
      end_key.empty() ? ns_stack_.back() + "\x7f" : Namespaced(end_key);

  RangeQueryInfo rq;
  rq.start_key = full_start;
  rq.end_key = full_end;

  std::vector<std::pair<std::string, std::string>> out;
  // Count first, so both vectors are allocated once and exact-size: the
  // results live on in the ledger.
  size_t count = 0;
  store_->RangeVisit(full_start, full_end,
                     [&count](std::string_view, const VersionedValue&) {
                       ++count;
                       return true;
                     });
  rq.results.reserve(count);
  out.reserve(count);
  // Visit the range in place: the old Range() call materialized every
  // (key, value, version) into a temporary vector just to copy it again.
  const size_t ns_prefix = ns_stack_.back().size() + 1;
  store_->RangeVisit(full_start, full_end,
                     [&](std::string_view k, const VersionedValue& vv) {
                       rq.results.push_back(
                           ReadItem{std::string(k), vv.version});
                       // Strip the namespace prefix for the contract's view.
                       out.emplace_back(std::string(k.substr(ns_prefix)),
                                        vv.value);
                       return true;
                     });
  rwset_.range_queries.push_back(std::move(rq));
  return out;
}

void TxContext::PushNamespace(std::string ns) {
  ns_stack_.push_back(std::move(ns));
}

void TxContext::PopNamespace() {
  assert(ns_stack_.size() > 1);
  ns_stack_.pop_back();
}

}  // namespace blockoptr
