#include "storage/bitmap_cache.h"

namespace bix {

std::string TraceKeyTag(BitmapKey key) {
  return "c" + std::to_string(key.component) + "/s" + std::to_string(key.slot);
}

std::optional<Result<DecodedBitmap>> InjectReadFault(
    FaultInjector* injector, BitmapKey key, const BitmapStore::Blob& blob,
    ClockInterface* clock, const CancelToken* cancel, TraceSink* trace) {
  switch (injector->OnRead(key)) {
    case FaultInjector::Fault::kUnavailable:
      if (trace != nullptr) trace->Tag("fault", "unavailable");
      return Result<DecodedBitmap>(
          Status::Unavailable("injected transient read error"));
    case FaultInjector::Fault::kBitFlip: {
      // A torn page: corrupt a copy of the stored bytes and run the same
      // integrity-checked decode the clean path uses.
      if (trace != nullptr) trace->Tag("fault", "bit_flip");
      BitmapStore::Blob corrupt = blob;
      injector->CorruptPayload(key, &corrupt.bytes);
      TraceScope materialize_span(trace, "materialize");
      return TryMaterializeBlobResident(corrupt);
    }
    case FaultInjector::Fault::kLatencySpike: {
      TraceScope spike_span(trace, "spike");
      clock->SleepFor(injector->latency_spike_seconds(), cancel);
      break;
    }
    case FaultInjector::Fault::kNone:
      break;
  }
  return std::nullopt;
}

Result<DecodedBitmap> BitmapCache::TryFetchDecoded(BitmapKey key,
                                                   IoStats* stats,
                                                   const CancelToken* cancel,
                                                   TraceSink* trace) {
  if (cancel != nullptr) {
    Status budget = cancel->CheckAt(clock_->Now());
    if (!budget.ok()) return budget;
  }
  TraceScope read_span(trace, "read");
  if (trace != nullptr) trace->Tag("key", TraceKeyTag(key));
  ++stats->scans;
  Result<const BitmapStore::Blob*> blob_r = store_->TryGetBlob(key);
  if (!blob_r.ok()) return blob_r.status();
  const BitmapStore::Blob& blob = *blob_r.value();
  const uint64_t bytes = blob.bytes.size();
  if (trace != nullptr) trace->Tag("codec", CodecName(blob.codec));
  // Decompression is paid on every fetch (the pool caches the stored form);
  // the charge is codec-aware — verbatim is free, Roaring pays only the
  // container-parse fraction.
  stats->decode_seconds += disk_.DecodeSeconds(bytes, blob.codec);
  ++stats->codec_decodes[static_cast<size_t>(blob.codec)];
  const bool hit = resident_.count(key) > 0;
  if (hit) {
    ++stats->pool_hits;
    if (trace != nullptr) trace->Tag("outcome", "hit");
    Touch(key);
  } else {
    ++stats->disk_reads;
    stats->bytes_read += bytes;
    stats->io_seconds += disk_.ReadSeconds(bytes);
    if (!read_before_.insert(key.Packed()).second) ++stats->rescans;
    if (trace != nullptr) {
      trace->Tag("outcome", "miss");
      trace->Tag("bytes", bytes);
    }
    // Faults model the disk, so they strike only this (simulated) read;
    // pool hits above are served from memory and stay clean.
    if (injector_ != nullptr) {
      std::optional<Result<DecodedBitmap>> faulted =
          InjectReadFault(injector_, key, blob, clock_, cancel, trace);
      if (faulted.has_value()) return *std::move(faulted);
    }
  }
  // Decode CPU (BBC decompression for compressed indexes) is measured by
  // the executor's end-to-end timer, not here, to avoid double counting.
  Result<DecodedBitmap> decoded = [&] {
    TraceScope materialize_span(trace, "materialize");
    return TryMaterializeBlobResident(blob);
  }();
  // Only bytes that passed their integrity check stay in the pool: a
  // failed decode evicts a resident key and never admits a missed one.
  if (!decoded.ok()) {
    if (hit) Evict(key);
  } else if (!hit) {
    Insert(key, bytes);
  }
  return decoded;
}

void BitmapCache::DropPool() {
  lru_.clear();
  resident_.clear();
  used_bytes_ = 0;
  read_before_.clear();
}

void BitmapCache::Touch(BitmapKey key) {
  // Relinks the node in place: a hit allocates nothing, and lru_it stays
  // valid.
  lru_.splice(lru_.begin(), lru_, resident_.at(key).lru_it);
}

void BitmapCache::Evict(BitmapKey key) {
  auto it = resident_.find(key);
  lru_.erase(it->second.lru_it);
  used_bytes_ -= it->second.bytes;
  resident_.erase(it);
}

void BitmapCache::Insert(BitmapKey key, uint64_t bytes) {
  if (bytes > pool_bytes_) return;  // too big to cache; read-through
  while (used_bytes_ + bytes > pool_bytes_ && !lru_.empty()) {
    Evict(lru_.back());
  }
  lru_.push_front(key);
  resident_.emplace(key, Entry{lru_.begin(), bytes});
  used_bytes_ += bytes;
}

}  // namespace bix
