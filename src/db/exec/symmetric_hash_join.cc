#include "db/exec/symmetric_hash_join.h"

#include <algorithm>
#include <limits>
#include <list>

#include "common/trace.h"
#include "db/exec/hash_table.h"

namespace dl2sql::db {

namespace {

using KeyId = KeyHashTable::KeyId;
constexpr KeyId kAbsent = KeyHashTable::kAbsent;
constexpr int64_t kNeverEvicted = std::numeric_limits<int64_t>::max();

/// One input of the symmetric join, its tuples arriving in row order.
struct Side {
  /// The side's distinct keys, numbered in first-seen order.
  KeyHashTable table;
  /// By row: key id, kAbsent for a NULL key.
  std::vector<KeyId> ids;
  /// By key id: the other side's id of the same key, or kAbsent.
  std::vector<KeyId> match;
  /// By key id: the rows that have arrived with the key, in arrival order
  /// (its full bucket); the resident bucket is the suffix from
  /// resident_begin.
  std::vector<std::vector<int64_t>> bucket;
  std::vector<size_t> resident_begin;
  /// Resident buckets, most recently used first, and each one's place.
  std::list<KeyId> lru;
  std::vector<std::list<KeyId>::iterator> lru_pos;
  /// By row: arrival stamp, and eviction stamp (kNeverEvicted if resident).
  std::vector<int64_t> arrival;
  std::vector<int64_t> evicted_at;
  int64_t resident_tuples = 0;

  /// Evaluates `expr` over `input` and numbers its distinct non-NULL
  /// values.
  Status Number(const Table& input, const Expr& expr, EvalContext* ctx) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle key, EvalExpr(expr, input, ctx));
    const std::vector<const Column*> keys = {key.get()};
    std::vector<uint64_t> hash;
    std::vector<uint8_t> nulls;
    DL2SQL_RETURN_NOT_OK(
        HashJoinKeys(keys, nullptr, ctx, &hash, &nulls, nullptr));
    const int64_t n = key->size();
    table = KeyHashTable::ForGroups({key->type()});
    ids.resize(static_cast<size_t>(n));
    table.FindOrInsertRange(keys, 0, n, hash.data(), nulls.data(),
                            ids.data());
    const size_t num_keys = static_cast<size_t>(table.num_keys());
    bucket.resize(num_keys);
    resident_begin.assign(num_keys, 0);
    lru_pos.resize(num_keys);
    arrival.assign(static_cast<size_t>(n), 0);
    evicted_at.assign(static_cast<size_t>(n), kNeverEvicted);
    return Status::OK();
  }

  /// Looks up every distinct key of this side in `other`'s table.
  Status Match(const Side& other, EvalContext* ctx) {
    const std::vector<const Column*> keys = {&table.key_columns()[0]};
    std::vector<uint64_t> hash;
    std::vector<uint8_t> nulls;
    return HashJoinKeys(keys, &other.table, ctx, &hash, &nulls, &match);
  }

  /// Estimated bytes once every row has arrived: per row its id, bucket
  /// entry, two stamps, and the hash and NULL flag numbering took; per key
  /// its match, bucket, resident start and LRU node.
  int64_t ByteSize() const {
    const size_t row = sizeof(KeyId) + 4 * sizeof(int64_t) + 1;
    const size_t key = sizeof(KeyId) + sizeof(bucket[0]) + sizeof(size_t) +
                       sizeof(lru_pos[0]) + 3 * sizeof(void*);
    return table.ByteSize() +
           static_cast<int64_t>(ids.size() * row + bucket.size() * key);
  }

  bool Resident(KeyId k) const { return resident_begin[k] < bucket[k].size(); }

  /// Makes resident bucket `k` the most recently used.
  void Touch(KeyId k) { lru.splice(lru.begin(), lru, lru_pos[k]); }

  /// Row `row`, whose key id is `k`, arrives at stamp `now`.
  void Arrive(KeyId k, int64_t row, int64_t now) {
    if (Resident(k)) {
      Touch(k);
    } else {
      lru_pos[k] = lru.insert(lru.begin(), k);
    }
    bucket[k].push_back(row);
    arrival[static_cast<size_t>(row)] = now;
    ++resident_tuples;
  }

  /// Evicts the least recently used bucket at stamp `now`; returns its
  /// tuple count (0 when nothing is resident).
  int64_t EvictOldest(int64_t now) {
    if (lru.empty()) return 0;
    const KeyId k = lru.back();
    lru.pop_back();
    const std::vector<int64_t>& rows = bucket[k];
    for (size_t i = resident_begin[k]; i < rows.size(); ++i) {
      evicted_at[static_cast<size_t>(rows[i])] = now;
    }
    const size_t evicted = rows.size() - resident_begin[k];
    resident_begin[k] = rows.size();
    resident_tuples -= static_cast<int64_t>(evicted);
    return static_cast<int64_t>(evicted);
  }
};

}  // namespace

Status SymmetricHashJoinPairs(const Table& left, const Table& right,
                              const Expr& left_key, const Expr& right_key,
                              EvalContext* ctx,
                              const SymmetricHashJoinOptions& options,
                              ScopedMemCharge* scratch, size_t limit,
                              std::vector<int64_t>* lrows,
                              std::vector<int64_t>* rrows,
                              SymmetricHashJoinStats* stats) {
  if (options.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  SymmetricHashJoinStats local_stats;
  SymmetricHashJoinStats& st = stats != nullptr ? *stats : local_stats;
  st = {};
  Side ls, rs;
  {
    DL2SQL_TRACE_SPAN("join", "shj_keys");
    DL2SQL_RETURN_NOT_OK(ls.Number(left, left_key, ctx));
    DL2SQL_RETURN_NOT_OK(rs.Number(right, right_key, ctx));
    DL2SQL_RETURN_NOT_OK(ls.Match(rs, ctx));
    DL2SQL_RETURN_NOT_OK(rs.Match(ls, ctx));
    DL2SQL_RETURN_NOT_OK(scratch->Charge(ls.ByteSize() + rs.ByteSize()));
  }

  int64_t clock = 0;  // global arrival/eviction stamp
  auto evict_over_budget = [&](int64_t now) {
    if (options.memory_budget_tuples <= 0) return;
    while (ls.resident_tuples + rs.resident_tuples >
           options.memory_budget_tuples) {
      // Evict from the side holding more resident tuples; bucket-granular.
      Side& victim = ls.resident_tuples >= rs.resident_tuples ? ls : rs;
      const int64_t evicted = victim.EvictOldest(now);
      if (evicted == 0) break;  // nothing left to evict
      ++st.evicted_buckets;
      st.evicted_tuples += evicted;
    }
  };
  // Rows [begin, end) of `side` arrive. Each is the later tuple of its
  // pairs with the other side's resident bucket of its key, and `mine` /
  // `theirs` take the two sides' rows of each pair.
  auto arrive = [&](Side& side, Side& other, int64_t begin, int64_t end,
                    std::vector<int64_t>* mine,
                    std::vector<int64_t>* theirs) {
    for (int64_t r = begin; r < end && lrows->size() < limit; ++r) {
      const int64_t now = clock++;
      const KeyId k = side.ids[static_cast<size_t>(r)];
      if (k == kAbsent) continue;  // NULL key
      const KeyId o = side.match[k];
      if (o != kAbsent && other.Resident(o)) {
        other.Touch(o);
        const std::vector<int64_t>& rows = other.bucket[o];
        for (size_t i = other.resident_begin[o]; i < rows.size(); ++i) {
          mine->push_back(r);
          theirs->push_back(rows[i]);
          ++st.online_pairs;
        }
      }
      side.Arrive(k, r, now);
      evict_over_budget(now);
    }
  };

  {
    // Alternate batches from both inputs (symmetric pipelining).
    DL2SQL_TRACE_SPAN("join", "shj_online");
    const int64_t nl = left.num_rows();
    const int64_t nr = right.num_rows();
    const int64_t step = options.batch_size;
    for (int64_t pos = 0; pos < std::max(nl, nr) && lrows->size() < limit;
         pos += step) {
      arrive(ls, rs, pos, std::min(nl, pos + step), lrows, rrows);
      arrive(rs, ls, pos, std::min(nr, pos + step), rrows, lrows);
    }
  }

  // Cleanup: recover pairs whose earlier tuple was evicted before the later
  // tuple arrived. A pair is recovered exactly once, via its earlier tuple.
  auto cleanup = [&](const Side& side, const Side& other,
                     std::vector<int64_t>* mine,
                     std::vector<int64_t>* theirs) {
    for (size_t r = 0; r < side.ids.size() && lrows->size() < limit; ++r) {
      const int64_t evicted = side.evicted_at[r];
      if (evicted == kNeverEvicted) continue;
      const KeyId o = side.match[side.ids[r]];
      if (o == kAbsent) continue;
      for (const int64_t u : other.bucket[o]) {
        // u arrived after r's eviction => the online probe missed the pair.
        // The tuple stamped with r's eviction probed r before evicting it.
        if (other.arrival[static_cast<size_t>(u)] > evicted) {
          mine->push_back(static_cast<int64_t>(r));
          theirs->push_back(u);
          ++st.cleanup_pairs;
        }
      }
    }
  };
  {
    DL2SQL_TRACE_SPAN("join", "shj_cleanup");
    cleanup(ls, rs, lrows, rrows);
    cleanup(rs, ls, rrows, lrows);
  }
  return Status::OK();
}

}  // namespace dl2sql::db
