#include "db/exec/vector_aggregate.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "accel/thread_pool.h"
#include "common/trace.h"
#include "db/exec/vector_batch.h"

namespace dl2sql::db::vec {

namespace {

/// Calls fn(at), where at(i) returns the T value of batch row i of `r`.
template <typename T, typename Fn>
void WithRead(const ColumnRead& r, int64_t begin, Fn&& fn) {
  const T* v;
  if constexpr (std::is_same_v<T, int64_t>) {
    v = r.col->ints().data();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.col->floats().data();
  } else {
    v = r.col->bools().data();
  }
  if (r.rows == nullptr) {
    v += begin;
    fn([v](SelIndex i) { return v[i]; });
  } else {
    fn([v, rows = r.rows](SelIndex i) { return v[rows[i]]; });
  }
}

/// WithRead over a numeric column, as its own type (kInt64: int64_t,
/// kFloat64: double), or always as double when `as_double`.
template <typename Fn>
void WithNumRead(const ColumnRead& r, int64_t begin, bool as_double, Fn&& fn) {
  if (r.col->type() == DataType::kFloat64) {
    WithRead<double>(r, begin, fn);
  } else if (as_double) {
    WithRead<int64_t>(r, begin, [&](auto at) {
      fn([at](SelIndex i) { return static_cast<double>(at(i)); });
    });
  } else {
    WithRead<int64_t>(r, begin, fn);
  }
}

/// Calls fn(at), where at(i) is batch row i's value of numeric argument
/// `arg`: x, or the product x * y with FastBinary's typing (INT64 x INT64
/// wraps; any FLOAT64 factor multiplies as doubles).
template <typename Fn>
void WithArg(const ArgRead& arg, int64_t begin, Fn&& fn) {
  if (arg.y.col == nullptr) {
    WithNumRead(arg.x, begin, false, fn);
    return;
  }
  const bool ints = arg.x.col->type() == DataType::kInt64 &&
                    arg.y.col->type() == DataType::kInt64;
  WithNumRead(arg.x, begin, !ints, [&](auto x) {
    WithNumRead(arg.y, begin, !ints, [&](auto y) {
      if constexpr (std::is_integral_v<decltype(x(0))>) {
        fn([x, y](SelIndex i) {
          return static_cast<int64_t>(static_cast<uint64_t>(x(i)) *
                                      static_cast<uint64_t>(y(i)));
        });
      } else {
        fn([x, y](SelIndex i) { return x(i) * y(i); });
      }
    });
  });
}

/// Final value of one aggregate from its typed state — the row path's
/// formulas, NULL rules and types.
Value AggValue(AggFunc f, const VAggSpec& spec, const VAggState& st) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Value::Int(st.count);
    case AggFunc::kSum:
      return st.count == 0 ? Value::Null() : Value::Float(st.sum);
    case AggFunc::kAvg:
      return st.count == 0
                 ? Value::Null()
                 : Value::Float(st.sum / static_cast<double>(st.count));
    case AggFunc::kStddevSamp: {
      if (st.count < 2) return Value::Null();
      const double mean = st.sum / static_cast<double>(st.count);
      const double var =
          (st.sumsq - static_cast<double>(st.count) * mean * mean) /
          static_cast<double>(st.count - 1);
      return Value::Float(std::sqrt(std::max(0.0, var)));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!st.has_minmax) return Value::Null();
      return spec.arg_type == DataType::kInt64 ? Value::Int(st.imin_max)
                                               : Value::Float(st.fmin_max);
  }
  return Value::Null();
}

bool NullFreeNumeric(const Column* c) {
  return c != nullptr && !c->HasNulls() &&
         (c->type() == DataType::kInt64 || c->type() == DataType::kFloat64);
}

}  // namespace

bool BatchAggregator::Compile(const PlanNode& node,
                              const std::vector<const Column*>& keys,
                              const std::vector<ArgRead>& args) {
  specs_.clear();
  for (size_t a = 0; a < node.agg_calls.size(); ++a) {
    const AggFunc f = node.agg_calls[a]->agg_func;
    VAggSpec s;
    if (f == AggFunc::kCountStar) {
      specs_.push_back(s);
      continue;
    }
    const Column* arg = args[a].x.col;
    const Column* factor = args[a].y.col;
    // NULL-bearing arguments keep the row path's skip-NULL semantics; the
    // whole operator falls back rather than special-casing validity here.
    if (arg == nullptr || arg->HasNulls() || arg->type() == DataType::kNull) {
      return false;
    }
    s.arg_type = arg->type();
    if (factor != nullptr) {
      if (!NullFreeNumeric(arg) || !NullFreeNumeric(factor) ||
          (f != AggFunc::kSum && f != AggFunc::kAvg &&
           f != AggFunc::kStddevSamp)) {
        return false;
      }
      if (factor->type() == DataType::kFloat64) {
        s.arg_type = DataType::kFloat64;
      }
    }
    const bool numeric = s.arg_type == DataType::kInt64 ||
                         s.arg_type == DataType::kFloat64;
    switch (f) {
      case AggFunc::kCount:
        s.kind = arg->type() == DataType::kBool ? VAggSpec::Kind::kCountBool
                                                : VAggSpec::Kind::kCountAll;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
      case AggFunc::kStddevSamp:
        if (!numeric) return false;
        s.kind = VAggSpec::Kind::kSum;
        s.squares = f == AggFunc::kStddevSamp;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        // String MIN/MAX stays on the row path (Value comparison).
        if (!numeric) return false;
        s.kind = VAggSpec::Kind::kMinMax;
        s.want_min = f == AggFunc::kMin;
        break;
      case AggFunc::kCountStar:
        break;
    }
    specs_.push_back(s);
  }
  std::vector<DataType> key_types;
  for (const Column* k : keys) key_types.push_back(k->type());
  table_ = KeyHashTable::ForGroups(key_types);
  first_row_.clear();
  per_agg_.assign(specs_.size(), {});
  slot_gid_.clear();
  dense_keys_.clear();
  return true;
}

int64_t BatchAggregator::UseDenseSlots(
    const std::vector<std::pair<int64_t, int64_t>>& bounds, int64_t input_rows,
    ScopedMemCharge* charge) {
  const std::vector<Column>& key_cols = table_.key_columns();
  if (bounds.empty() || bounds.size() != key_cols.size()) return 0;
  using Wide = unsigned __int128;
  const Wide budget = static_cast<Wide>(std::max<int64_t>(input_rows, 0)) *
                      kDenseSlotsPerInputRow;
  std::vector<uint64_t> span(bounds.size());
  Wide slots = 1;
  for (size_t k = 0; k < bounds.size(); ++k) {
    const auto [lo, hi] = bounds[k];
    if (key_cols[k].type() != DataType::kInt64 || hi < lo) return 0;
    const Wide width = static_cast<Wide>(static_cast<__int128>(hi) - lo + 1);
    slots *= width;
    if (slots > budget) return 0;
    span[k] = static_cast<uint64_t>(width);
  }
  const int64_t num_slots = static_cast<int64_t>(slots);
  const int64_t bytes =
      num_slots * static_cast<int64_t>(sizeof(KeyHashTable::KeyId));
  if (!charge->Charge(bytes).ok()) return 0;
  slot_lo_.clear();
  for (const auto& b : bounds) slot_lo_.push_back(b.first);
  slot_stride_.assign(bounds.size(), 1);
  for (size_t k = bounds.size() - 1; k-- > 0;) {
    slot_stride_[k] = slot_stride_[k + 1] * span[k + 1];
  }
  slot_span_ = std::move(span);
  slot_gid_.assign(static_cast<size_t>(num_slots), KeyHashTable::kAbsent);
  dense_keys_.clear();
  for (size_t k = 0; k < bounds.size(); ++k) {
    dense_keys_.emplace_back(DataType::kInt64);
  }
  table_ = KeyHashTable();
  return num_slots;
}

void BatchAggregator::SyncStates() {
  for (auto& states : per_agg_) states.resize(first_row_.size());
}

void BatchAggregator::Accumulate(const std::vector<ArgRead>& args,
                                 int64_t begin, SelIndex n) {
  SyncStates();
  const SelIndex* gids = gid_buf_.data();
  for (size_t a = 0; a < specs_.size(); ++a) {
    const VAggSpec& s = specs_[a];
    VAggState* states = per_agg_[a].data();
    switch (s.kind) {
      case VAggSpec::Kind::kCountStar:
      case VAggSpec::Kind::kCountAll:
        AccumulateCount(gids, n, states);
        break;
      case VAggSpec::Kind::kCountBool:
        WithRead<uint8_t>(args[a].x, begin, [&](auto at) {
          AccumulateCountBool(at, gids, n, states);
        });
        break;
      case VAggSpec::Kind::kSum:
        WithArg(args[a], begin, [&](auto at) {
          if (s.squares) {
            AccumulateSum<true>(at, gids, n, states);
          } else {
            AccumulateSum<false>(at, gids, n, states);
          }
        });
        break;
      case VAggSpec::Kind::kMinMax:
        WithNumRead(args[a].x, begin, false, [&](auto at) {
          AccumulateMinMax(at, gids, n, s.want_min, states);
        });
        break;
    }
  }
}

void BatchAggregator::FindDenseGroups(const std::vector<ColumnRead>& keys,
                                      int64_t begin, SelIndex n,
                                      int64_t base) {
  // Slot numbers key by key, column at a time. Every key value lies in its
  // bounds (UseDenseSlots' contract), so every row has a slot.
  slot_buf_.resize(static_cast<size_t>(n));
  uint64_t* slot = slot_buf_.data();
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint64_t lo = static_cast<uint64_t>(slot_lo_[k]);
    const uint64_t stride = slot_stride_[k];
    WithRead<int64_t>(keys[k], begin, [&](auto at) {
      if (k == 0) {
        for (SelIndex i = 0; i < n; ++i) {
          slot[i] = (static_cast<uint64_t>(at(i)) - lo) * stride;
        }
      } else {
        for (SelIndex i = 0; i < n; ++i) {
          slot[i] += (static_cast<uint64_t>(at(i)) - lo) * stride;
        }
      }
    });
  }
  for (SelIndex i = 0; i < n; ++i) {
    assert(slot[i] < slot_gid_.size());
    KeyHashTable::KeyId& g = slot_gid_[slot[i]];
    if (g == KeyHashTable::kAbsent) {
      // A new group: its key values are its slot's coordinates.
      g = static_cast<KeyHashTable::KeyId>(first_row_.size());
      first_row_.push_back(base + begin + i);
      for (size_t k = 0; k < dense_keys_.size(); ++k) {
        const uint64_t d = slot[i] / slot_stride_[k] % slot_span_[k];
        dense_keys_[k].mutable_ints().push_back(
            static_cast<int64_t>(static_cast<uint64_t>(slot_lo_[k]) + d));
      }
    }
    gid_buf_[static_cast<size_t>(i)] = g;
  }
}

void BatchAggregator::Consume(const std::vector<ColumnRead>& keys,
                              const std::vector<ArgRead>& args, int64_t begin,
                              int64_t end, int64_t base,
                              const uint64_t* hashes) {
  const SelIndex n = static_cast<SelIndex>(end - begin);
  gid_buf_.resize(static_cast<size_t>(n));
  if (keys.empty()) {
    if (first_row_.empty() && n > 0) first_row_.push_back(base + begin);
    std::fill(gid_buf_.begin(), gid_buf_.end(), 0);
  } else if (!slot_gid_.empty()) {
    FindDenseGroups(keys, begin, n, base);
  } else {
    std::vector<const Column*> cols;
    for (const ColumnRead& k : keys) cols.push_back(k.col);
    if (hashes == nullptr) {
      hash_buf_.resize(static_cast<size_t>(n));
      HashKeyRange(cols, begin, end, hash_buf_.data());
      hashes = hash_buf_.data();
    }
    table_.FindOrInsertRange(cols, begin, end, hashes, nullptr,
                             gid_buf_.data());
    for (SelIndex i = 0; i < n; ++i) {
      if (static_cast<size_t>(gid_buf_[static_cast<size_t>(i)]) ==
          first_row_.size()) {
        first_row_.push_back(base + begin + i);
      }
    }
  }
  Accumulate(args, begin, n);
}

void BatchAggregator::ConsumeRows(const std::vector<const Column*>& keys,
                                  const std::vector<ArgRead>& args,
                                  const int64_t* rows, int64_t count,
                                  const uint64_t* hashes, int64_t chunk) {
  std::vector<ArgRead> listed = args;
  for (int64_t off = 0; off < count; off += chunk) {
    const int64_t* batch = rows + off;
    const SelIndex n = static_cast<SelIndex>(std::min(chunk, count - off));
    gid_buf_.resize(static_cast<size_t>(n));
    for (SelIndex i = 0; i < n; ++i) {
      const int64_t row = batch[i];
      const SelIndex gid =
          table_.FindOrInsert(keys, row, hashes[static_cast<size_t>(row)]);
      if (static_cast<size_t>(gid) == first_row_.size()) {
        first_row_.push_back(row);
      }
      gid_buf_[static_cast<size_t>(i)] = gid;
    }
    for (ArgRead& a : listed) a.x.rows = a.y.rows = batch;
    Accumulate(listed, 0, n);
  }
}

void BatchAggregator::TakeGroup(const BatchAggregator& other, int64_t g) {
  std::vector<const Column*> keys;
  for (const Column& c : other.table_.key_columns()) keys.push_back(&c);
  table_.FindOrInsert(keys, g, HashKeyRow(keys, g));
  first_row_.push_back(other.first_row_[static_cast<size_t>(g)]);
  for (size_t a = 0; a < per_agg_.size(); ++a) {
    per_agg_[a].push_back(other.per_agg_[a][static_cast<size_t>(g)]);
  }
}

int64_t BatchAggregator::ByteSize() const {
  return table_.ByteSize() +
         static_cast<int64_t>(first_row_.size() *
                              (sizeof(int64_t) * (1 + dense_keys_.size()) +
                               per_agg_.size() * sizeof(VAggState)));
}

Result<Table> BatchAggregator::Finish(const PlanNode& node) {
  const std::vector<Column>& key_cols =
      slot_gid_.empty() ? table_.key_columns() : dense_keys_;
  // Global aggregate over empty input still yields one row.
  if (key_cols.empty() && first_row_.empty()) {
    first_row_.push_back(-1);
    SyncStates();
  }
  const size_t num_groups = first_row_.size();
  std::vector<Column> out_cols;
  TableSchema out_schema;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const Column& c = key_cols[k];
    out_schema.AddField({node.group_names[k], c.type()});
    out_cols.push_back(c);  // one row per group, first-seen order
  }
  for (size_t a = 0; a < specs_.size(); ++a) {
    const AggFunc f = node.agg_calls[a]->agg_func;
    DataType t = DataType::kFloat64;
    if (f == AggFunc::kCount || f == AggFunc::kCountStar) {
      t = DataType::kInt64;
    } else if (f == AggFunc::kMin || f == AggFunc::kMax) {
      t = specs_[a].arg_type;
    }
    Column c(t);
    c.Reserve(static_cast<int64_t>(num_groups));
    for (size_t g = 0; g < num_groups; ++g) {
      DL2SQL_RETURN_NOT_OK(c.Append(AggValue(f, specs_[a], per_agg_[a][g])));
    }
    out_schema.AddField({node.agg_names[a], c.type()});
    out_cols.push_back(std::move(c));
  }
  return Table::FromColumns(std::move(out_schema), std::move(out_cols));
}

Result<bool> TryVectorAggregate(const PlanNode& node,
                                const std::vector<ColumnHandle>& key_cols,
                                const std::vector<ColumnHandle>& arg_cols,
                                int64_t n, EvalContext* ctx, Table* out) {
  std::vector<const Column*> kptrs;
  std::vector<ColumnRead> kreads;
  for (const auto& c : key_cols) {
    kptrs.push_back(c.get());
    kreads.push_back({c.get(), nullptr});
  }
  std::vector<ArgRead> areads;
  for (const auto& c : arg_cols) areads.push_back({{c.get(), nullptr}, {}});
  BatchAggregator agg;
  if (!agg.Compile(node, kptrs, areads)) return false;

  DL2SQL_TRACE_SPAN("vector", "aggregate");

  const int64_t m = ctx != nullptr && ctx->morsel_size > 0
                        ? ctx->morsel_size
                        : ThreadPool::kDefaultMorselSize;
  const int64_t num_morsels = n == 0 ? 0 : (n + m - 1) / m;
  ThreadPool* const pool = ctx != nullptr ? ctx->pool : nullptr;
  // A global aggregate is one group: nothing to partition.
  const bool parallel = pool != nullptr && pool->num_threads() > 1 && n > m &&
                        !kptrs.empty();

  if (!parallel) {
    auto body = [&](int64_t bgn, int64_t end, int) -> Status {
      agg.Consume(kreads, areads, bgn, end, 0);
      return Status::OK();
    };
    if (pool != nullptr && (pool->num_threads() == 1 || n <= m)) {
      // Driven through the pool for its accounting and trace spans; these
      // conditions make ParallelForMorsel run inline, morsel by morsel.
      DL2SQL_RETURN_NOT_OK(pool->ParallelForMorsel(n, m, body));
    } else {
      for (int64_t bgn = 0; bgn < n; bgn += m) {
        DL2SQL_RETURN_NOT_OK(body(bgn, std::min(n, bgn + m), 0));
      }
    }
  } else {
    // Partition rows by the high bits of their key hash. Each group lands
    // in exactly one partition with its rows in ascending order, so each
    // partition aggregates independently with serial accumulation order;
    // sorting all groups by first row restores first-seen order.
    const int64_t parts = static_cast<int64_t>(
        std::bit_ceil(static_cast<uint64_t>(pool->num_threads()) * 4));
    const int shift = 64 - std::countr_zero(static_cast<uint64_t>(parts));
    std::vector<uint64_t> hashes(static_cast<size_t>(n));
    std::vector<int64_t> cursor(static_cast<size_t>(num_morsels * parts), 0);
    DL2SQL_RETURN_NOT_OK(pool->ParallelForMorsel(
        n, m, [&](int64_t bgn, int64_t end, int) -> Status {
          HashKeyRange(kptrs, bgn, end, hashes.data() + bgn);
          int64_t* counts = cursor.data() + (bgn / m) * parts;
          for (int64_t r = bgn; r < end; ++r) {
            ++counts[hashes[static_cast<size_t>(r)] >> shift];
          }
          return Status::OK();
        }));
    // Counts -> write cursors: partition-major, morsel order within.
    std::vector<int64_t> part_begin(static_cast<size_t>(parts) + 1, 0);
    int64_t pos = 0;
    for (int64_t p = 0; p < parts; ++p) {
      part_begin[static_cast<size_t>(p)] = pos;
      for (int64_t mo = 0; mo < num_morsels; ++mo) {
        int64_t& c = cursor[static_cast<size_t>(mo * parts + p)];
        const int64_t count = c;
        c = pos;
        pos += count;
      }
    }
    part_begin[static_cast<size_t>(parts)] = pos;
    std::vector<int64_t> order(static_cast<size_t>(n));
    DL2SQL_RETURN_NOT_OK(pool->ParallelForMorsel(
        n, m, [&](int64_t bgn, int64_t end, int) -> Status {
          int64_t* cur = cursor.data() + (bgn / m) * parts;
          for (int64_t r = bgn; r < end; ++r) {
            order[static_cast<size_t>(
                cur[hashes[static_cast<size_t>(r)] >> shift]++)] = r;
          }
          return Status::OK();
        }));
    std::vector<BatchAggregator> part_aggs(static_cast<size_t>(parts), agg);
    DL2SQL_RETURN_NOT_OK(pool->ParallelForMorsel(
        parts, 1, [&](int64_t p0, int64_t p1, int) -> Status {
          for (int64_t p = p0; p < p1; ++p) {
            const int64_t b = part_begin[static_cast<size_t>(p)];
            part_aggs[static_cast<size_t>(p)].ConsumeRows(
                kptrs, areads, order.data() + b,
                part_begin[static_cast<size_t>(p) + 1] - b, hashes.data(), m);
          }
          return Status::OK();
        }));
    std::vector<std::tuple<int64_t, size_t, int64_t>> groups;
    for (size_t p = 0; p < part_aggs.size(); ++p) {
      const auto& first = part_aggs[p].first_rows();
      for (size_t g = 0; g < first.size(); ++g) {
        groups.emplace_back(first[g], p, static_cast<int64_t>(g));
      }
    }
    std::sort(groups.begin(), groups.end());
    for (const auto& [first, p, g] : groups) {
      agg.TakeGroup(part_aggs[p], g);
    }
  }

  DL2SQL_ASSIGN_OR_RETURN(Table result, agg.Finish(node));
  if (ctx != nullptr) {
    ctx->vec_batches += num_morsels;
    ctx->vec_rows_in += n;
    ctx->vec_rows_selected += n;
  }
  *out = std::move(result);
  return true;
}

}  // namespace dl2sql::db::vec
