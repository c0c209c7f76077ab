#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "index/reorder.h"
#include "query/interval_rewrite.h"
#include "query/membership_rewrite.h"

namespace bix {

QueryExecutor::QueryExecutor(const BitmapIndex* index, ExecutorOptions options)
    : index_(index),
      options_(options),
      owned_cache_(std::make_unique<ShardedBitmapCache>(
          &index->store(), options.buffer_pool_bytes, /*num_shards=*/1,
          options.disk, /*io_latency_scale=*/0.0, options.clock,
          PoolForm::kStored)),
      cache_(owned_cache_.get()) {
  BIX_CHECK(index != nullptr);
}

QueryExecutor::QueryExecutor(const BitmapIndex* index, ExecutorOptions options,
                             BitmapCacheInterface* shared_cache)
    : index_(index), options_(options), cache_(shared_cache) {
  BIX_CHECK(index != nullptr);
  BIX_CHECK(shared_cache != nullptr);
  BIX_CHECK_MSG(!options.cold_pool_per_query,
                "a shared cache cannot be dropped per query");
}

ExprPtr QueryExecutor::Rewrite(IntervalQuery q) const {
  return RewriteInterval(index_->decomposition(), index_->encoding(), q);
}

std::vector<ExprPtr> QueryExecutor::RewriteMembership(
    const std::vector<uint32_t>& values, const CancelToken* cancel) const {
  ClockInterface* clock =
      options_.clock != nullptr ? options_.clock : RealClock::Get();
  std::vector<ExprPtr> exprs;
  for (const IntervalQuery& q : MembershipToIntervals(values)) {
    // Rewrite-loop budget check: an oversized membership rewrite stops
    // between constituents; the evaluation entry check surfaces the typed
    // status for the (partial) expression list.
    if (cancel != nullptr && !cancel->CheckAt(clock->Now()).ok()) break;
    exprs.push_back(Rewrite(q));
  }
  return exprs;
}

Bitvector QueryExecutor::EvaluateInterval(IntervalQuery q) {
  // Same bounds contract as EvaluateMembership: out-of-domain intervals are
  // a programming error, checked at the public entry (not deep in the
  // rewrite where the failure mode is a wrong answer or a huge loop).
  BIX_CHECK_MSG(q.lo <= q.hi, "interval lo > hi");
  BIX_CHECK(q.hi < index_->decomposition().cardinality());
  return TryEvaluateRewritten({Rewrite(q)}).value();
}

void QueryExecutor::CheckMembership(const std::vector<uint32_t>& values) const {
  BIX_CHECK_MSG(!values.empty(), "empty membership query");
  for (uint32_t v : values) BIX_CHECK(v < index_->decomposition().cardinality());
}

Bitvector QueryExecutor::EvaluateMembership(
    const std::vector<uint32_t>& values) {
  CheckMembership(values);
  return TryEvaluateRewritten(RewriteMembership(values)).value();
}

std::string QueryExecutor::QueryPlan::ToString() const {
  std::string s = "plan: " + std::to_string(constituents.size()) +
                  " constituent(s), " + std::to_string(distinct_bitmaps) +
                  " distinct bitmap(s), " + std::to_string(cold_bytes) +
                  " stored bytes\n";
  char cost[96];
  std::snprintf(cost, sizeof(cost),
                "est cold cost: %.3f ms I/O + %.3f ms decode\n",
                est_io_seconds * 1e3, est_decode_seconds * 1e3);
  s += cost;
  for (const std::string& c : constituents) s += "  " + c + "\n";
  return s;
}

QueryExecutor::QueryPlan QueryExecutor::ExplainMembership(
    const std::vector<uint32_t>& values) const {
  CheckMembership(values);
  QueryPlan plan;
  std::vector<BitmapKey> leaves;
  for (const ExprPtr& e : RewriteMembership(values)) {
    plan.constituents.push_back(ExprToString(e));
    CollectLeaves(e, &leaves);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const BitmapKey& a, const BitmapKey& b) {
              return a.Packed() < b.Packed();
            });
  leaves.erase(std::unique(leaves.begin(), leaves.end(),
                           [](const BitmapKey& a, const BitmapKey& b) {
                             return a == b;
                           }),
               leaves.end());
  plan.distinct_bitmaps = leaves.size();
  for (const BitmapKey& key : leaves) {
    const BitmapStore::Blob& blob = index_->store().GetBlob(key);
    plan.cold_bytes += blob.bytes.size();
    plan.est_io_seconds += options_.disk.ReadSeconds(blob.bytes.size());
    plan.est_decode_seconds +=
        options_.disk.DecodeSeconds(blob.bytes.size(), blob.codec);
  }
  return plan;
}

QueryExecutor::QueryPlan QueryExecutor::ExplainInterval(
    IntervalQuery q) const {
  // Preconditions first: the negated check must not run after the value
  // list is built, and the bounds must be validated before they drive the
  // loop — `v <= q.hi` over uint32_t never terminates for
  // q.hi == UINT32_MAX, so the loop variable is widened too.
  BIX_CHECK_MSG(!q.negated, "ExplainInterval handles positive intervals");
  BIX_CHECK_MSG(q.lo <= q.hi, "interval lo > hi");
  BIX_CHECK(q.hi < index_->decomposition().cardinality());
  std::vector<uint32_t> values;
  for (uint64_t v = q.lo; v <= q.hi; ++v) {
    values.push_back(static_cast<uint32_t>(v));
  }
  return ExplainMembership(values);
}

void QueryExecutor::OrderForSharing(std::vector<const ExprPtr*>* order) {
  // Greedy nearest-neighbor over the constituent "shared leaves" graph:
  // start from the constituent with the most leaves and repeatedly pick the
  // unvisited constituent sharing the most bitmaps with the previous one.
  const size_t n = order->size();
  if (n <= 2) return;
  std::vector<std::unordered_set<uint64_t>> leaf_sets(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<BitmapKey> leaves;
    CollectLeaves(*(*order)[i], &leaves);
    for (const BitmapKey& k : leaves) leaf_sets[i].insert(k.Packed());
  }
  auto shared = [&](size_t a, size_t b) {
    size_t count = 0;
    for (uint64_t k : leaf_sets[a]) count += leaf_sets[b].count(k);
    return count;
  };
  std::vector<const ExprPtr*> result;
  std::vector<bool> used(n, false);
  size_t current = 0;
  for (size_t i = 1; i < n; ++i) {
    if (leaf_sets[i].size() > leaf_sets[current].size()) current = i;
  }
  used[current] = true;
  result.push_back((*order)[current]);
  for (size_t step = 1; step < n; ++step) {
    size_t best = n;
    size_t best_shared = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const size_t s = shared(current, i);
      if (best == n || s > best_shared) {
        best = i;
        best_shared = s;
      }
    }
    used[best] = true;
    result.push_back((*order)[best]);
    current = best;
  }
  *order = std::move(result);
}

Result<Bitvector> QueryExecutor::TryEvaluateRewritten(
    const std::vector<ExprPtr>& exprs, const CancelToken* cancel,
    uint64_t* count) {
  Bitvector rows;
  Status status = EvalCore(exprs, cancel, &rows, count, /*exclude=*/nullptr);
  if (!status.ok()) return status;
  if (!index_->reordered()) return rows;
  // Reordered index (DESIGN.md section 18): EvalCore's bits are index
  // positions; permute them back so callers only ever see original RIDs.
  return MapToOriginalRids(rows, index_->row_order());
}

Result<uint64_t> QueryExecutor::TryEvaluateCountRewritten(
    const std::vector<ExprPtr>& exprs, const CancelToken* cancel,
    const DeltaView* delta, const ValueSet* pred) {
  BIX_CHECK_MSG((delta == nullptr) == (pred == nullptr),
                "an overlay needs the query's predicate");
  uint64_t count = 0;
  Status status =
      delta != nullptr
          ? EvalMerged(exprs, *delta, *pred, cancel, /*rows_out=*/nullptr,
                       &count)
          : EvalCore(exprs, cancel, /*rows_out=*/nullptr, &count,
                     /*exclude=*/nullptr);
  if (!status.ok()) return status;
  return count;
}

Result<Bitvector> QueryExecutor::TryEvaluateRewrittenMerged(
    const std::vector<ExprPtr>& exprs, const DeltaView& delta,
    const ValueSet& pred, const CancelToken* cancel, uint64_t* count) {
  Bitvector rows;
  Status status = EvalMerged(exprs, delta, pred, cancel, &rows, count);
  if (!status.ok()) return status;
  return rows;
}

Status QueryExecutor::EvalMerged(const std::vector<ExprPtr>& exprs,
                                 const DeltaView& delta, const ValueSet& pred,
                                 const CancelToken* cancel,
                                 Bitvector* rows_out, uint64_t* count_out) {
  // The overlay is keyed by original RIDs (the writable index never
  // renumbers). An unreordered base shares that space, so the tombstone
  // mask joins the evaluation pass itself; a reordered base's answer must
  // be mapped back first, and is masked after.
  const bool reordered = index_->reordered();
  Bitvector rows;
  Bitvector* rows_ptr = (rows_out != nullptr || reordered) ? &rows : nullptr;
  uint64_t count = 0;
  Status status = EvalCore(exprs, cancel, rows_ptr, &count,
                           reordered ? nullptr : delta.dead);
  if (!status.ok()) return status;
  if (reordered) {
    rows = MapToOriginalRids(rows, index_->row_order());
    rows.Resize(delta.total_rows);
    rows.AndNotWith(*delta.dead);
    count = rows.Count();
  }
  {
    TraceScope scope(trace_, "delta_merge");
    if (trace_ != nullptr) {
      trace_->Tag("overrides", delta.overrides->size());
      trace_->Tag("appended", delta.appended->size());
    }
    count += static_cast<uint64_t>(MergeDeltaOverlay(delta, pred, rows_ptr));
  }
  if (rows_out != nullptr) *rows_out = std::move(rows);
  if (count_out != nullptr) *count_out = count;
  return Status::OK();
}

Status QueryExecutor::EvalCore(const std::vector<ExprPtr>& exprs,
                               const CancelToken* cancel, Bitvector* rows_out,
                               uint64_t* count_out, const Bitvector* exclude) {
  if (options_.cold_pool_per_query) cache_->DropPool();
  ClockInterface* clock =
      options_.clock != nullptr ? options_.clock : RealClock::Get();
  const uint64_t rows = index_->row_count();
  const auto t0 = std::chrono::steady_clock::now();
  auto charge_cpu = [this, t0] {
    const auto t1 = std::chrono::steady_clock::now();
    stats_.cpu_seconds += std::chrono::duration<double>(t1 - t0).count();
  };
  // Entry check: a query whose budget expired while queued (or during the
  // rewrite) resolves typed before fetching anything.
  if (cancel != nullptr) {
    Status budget = cancel->CheckAt(clock->Now());
    if (!budget.ok()) {
      charge_cpu();
      return budget;
    }
  }

  // Fetch phase: the strategy decides which bitmaps are read and when
  // (paper Section 6.3), which is all the scans and modeled I/O depend on.
  std::vector<BitmapKey> fetch_order;
  if (options_.strategy == EvalStrategy::kComponentWise) {
    // Every distinct bitmap the whole query needs, exactly once, in
    // component order: all of component n's bitmaps on behalf of all
    // constituents, then component n-1, ...
    for (const ExprPtr& e : exprs) CollectLeaves(e, &fetch_order);
    std::sort(fetch_order.begin(), fetch_order.end(),
              [](const BitmapKey& a, const BitmapKey& b) {
                if (a.component != b.component) return a.component > b.component;
                return a.slot < b.slot;
              });
    fetch_order.erase(std::unique(fetch_order.begin(), fetch_order.end()),
                      fetch_order.end());
  } else {
    // One constituent at a time: each constituent's distinct bitmaps, in
    // expression order. A bitmap shared with an earlier constituent is
    // fetched again — served by the pool when it is still resident,
    // re-read (a rescan) otherwise.
    std::vector<const ExprPtr*> order;
    for (const ExprPtr& e : exprs) order.push_back(&e);
    if (options_.strategy == EvalStrategy::kBufferAware) {
      OrderForSharing(&order);
    }
    std::vector<BitmapKey> leaves;
    for (const ExprPtr* e : order) {
      leaves.clear();
      CollectLeaves(*e, &leaves);
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (std::find(leaves.begin(), leaves.begin() + i, leaves[i]) ==
            leaves.begin() + i) {
          fetch_order.push_back(leaves[i]);
        }
      }
    }
  }
  // The map holds handles, so a bitmap is never copied per reference.
  std::unordered_map<uint64_t, DecodedBitmap> fetched;
  fetched.reserve(fetch_order.size());
  for (const BitmapKey& key : fetch_order) {
    // The cache checks the budget on every fetch itself, so an expired or
    // cancelled query stops here with its typed status.
    Result<DecodedBitmap> r =
        cache_->TryFetchDecoded(key, &stats_, cancel, trace_);
    if (!r.ok()) {
      charge_cpu();
      return r.status();
    }
    fetched.insert_or_assign(key.Packed(), std::move(r).value());
  }

  // One program run combines the fetched bitmaps (DESIGN.md section 12).
  DecodedLeafFetcher fetch = [&fetched](BitmapKey key) -> DecodedBitmap {
    auto it = fetched.find(key.Packed());
    BIX_CHECK(it != fetched.end());
    return it->second;
  };
  Bitvector result;
  const uint64_t count =
      EvaluateUnionBlocked(exprs, rows, fetch,
                           rows_out != nullptr ? &result : nullptr, trace_,
                           exclude);
  charge_cpu();
  if (rows_out != nullptr) *rows_out = std::move(result);
  if (count_out != nullptr) *count_out = count;
  return Status::OK();
}

}  // namespace bix
