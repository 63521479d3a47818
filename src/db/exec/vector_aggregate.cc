#include "db/exec/vector_aggregate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/thread_pool.h"
#include "common/trace.h"
#include "db/exec/vector_batch.h"

namespace dl2sql::db::vec {

namespace {

/// Batch slice of a typed argument array: contiguous from `begin`, or
/// gathered through `rows` into `buf`.
template <typename T>
const T* ArgSlice(const std::vector<T>& vals, int64_t begin,
                  const int64_t* rows, SelIndex n, std::vector<T>* buf) {
  if (rows == nullptr) return vals.data() + begin;
  buf->resize(static_cast<size_t>(n));
  for (SelIndex i = 0; i < n; ++i) {
    (*buf)[static_cast<size_t>(i)] = vals[static_cast<size_t>(rows[i])];
  }
  return buf->data();
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
      return spec.kind == VAggSpec::Kind::kMinMaxInt
                 ? Value::Int(st.imin_max)
                 : Value::Float(st.fmin_max);
  }
  return Value::Null();
}

}  // namespace

bool BatchAggregator::Compile(const PlanNode& node,
                              const std::vector<const Column*>& keys,
                              const std::vector<const Column*>& args) {
  specs_.clear();
  for (size_t a = 0; a < node.agg_calls.size(); ++a) {
    const AggFunc f = node.agg_calls[a]->agg_func;
    VAggSpec s;
    if (f == AggFunc::kCountStar) {
      specs_.push_back(s);
      continue;
    }
    const Column* arg = args[a];
    // NULL-bearing arguments keep the row path's skip-NULL semantics; the
    // whole operator falls back rather than special-casing validity here.
    if (arg == nullptr || arg->HasNulls() || arg->type() == DataType::kNull) {
      return false;
    }
    s.arg_type = arg->type();
    const bool is_int = arg->type() == DataType::kInt64;
    const bool is_float = arg->type() == DataType::kFloat64;
    switch (f) {
      case AggFunc::kCount:
        s.kind = arg->type() == DataType::kBool ? VAggSpec::Kind::kCountBool
                                                : VAggSpec::Kind::kCountAll;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
      case AggFunc::kStddevSamp:
        if (!is_int && !is_float) return false;
        s.kind = is_int ? VAggSpec::Kind::kSumInt : VAggSpec::Kind::kSumFloat;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        // String MIN/MAX stays on the row path (Value comparison).
        if (!is_int && !is_float) return false;
        s.kind = is_int ? VAggSpec::Kind::kMinMaxInt
                        : VAggSpec::Kind::kMinMaxFloat;
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
  return num_slots;
}

void BatchAggregator::SyncStates() {
  for (auto& states : per_agg_) states.resize(first_row_.size());
}

void BatchAggregator::Accumulate(const std::vector<const Column*>& args,
                                 int64_t begin, const int64_t* rows,
                                 SelIndex n) {
  SyncStates();
  const SelIndex* gids = gid_buf_.data();
  for (size_t a = 0; a < specs_.size(); ++a) {
    const VAggSpec& s = specs_[a];
    VAggState* states = per_agg_[a].data();
    const Column* arg = args[a];
    switch (s.kind) {
      case VAggSpec::Kind::kCountStar:
      case VAggSpec::Kind::kCountAll:
        AccumulateCount(gids, n, states);
        break;
      case VAggSpec::Kind::kCountBool:
        AccumulateCountBool(ArgSlice(arg->bools(), begin, rows, n, &bool_buf_),
                            gids, n, states);
        break;
      case VAggSpec::Kind::kSumInt:
        AccumulateSumInt(ArgSlice(arg->ints(), begin, rows, n, &int_buf_),
                         gids, n, states);
        break;
      case VAggSpec::Kind::kSumFloat:
        AccumulateSumFloat(
            ArgSlice(arg->floats(), begin, rows, n, &float_buf_), gids, n,
            states);
        break;
      case VAggSpec::Kind::kMinMaxInt:
        AccumulateMinMaxInt(ArgSlice(arg->ints(), begin, rows, n, &int_buf_),
                            gids, n, s.want_min, states);
        break;
      case VAggSpec::Kind::kMinMaxFloat:
        AccumulateMinMaxFloat(
            ArgSlice(arg->floats(), begin, rows, n, &float_buf_), gids, n,
            s.want_min, states);
        break;
    }
  }
}

void BatchAggregator::FindDenseGroups(const std::vector<const Column*>& keys,
                                      int64_t begin, int64_t end,
                                      int64_t base) {
  // Slot numbers key by key, column at a time. A row outside the bounds'
  // box, or with a NULL key, gets no slot and is looked up by hash.
  constexpr uint64_t kNoSlot = ~uint64_t{0};
  const size_t n = static_cast<size_t>(end - begin);
  slot_buf_.resize(n);
  uint64_t* slot = slot_buf_.data();
  for (size_t k = 0; k < keys.size(); ++k) {
    const int64_t* v = keys[k]->ints().data() + begin;
    const uint64_t lo = static_cast<uint64_t>(slot_lo_[k]);
    const uint64_t span = slot_span_[k];
    const uint64_t stride = slot_stride_[k];
    if (k == 0) {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t d = static_cast<uint64_t>(v[i]) - lo;
        slot[i] = d < span ? d * stride : kNoSlot;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t d = static_cast<uint64_t>(v[i]) - lo;
        slot[i] =
            d < span && slot[i] != kNoSlot ? slot[i] + d * stride : kNoSlot;
      }
    }
    if (!keys[k]->validity().empty()) {
      for (size_t i = 0; i < n; ++i) {
        if (!keys[k]->IsValid(begin + static_cast<int64_t>(i))) {
          slot[i] = kNoSlot;
        }
      }
    }
  }
  const uint64_t num_slots = slot_gid_.size();
  for (size_t i = 0; i < n; ++i) {
    const bool dense = slot[i] < num_slots;
    KeyHashTable::KeyId g = dense ? slot_gid_[slot[i]] : KeyHashTable::kAbsent;
    if (g == KeyHashTable::kAbsent) {
      const int64_t row = begin + static_cast<int64_t>(i);
      g = table_.FindOrInsert(keys, row, HashKeyRow(keys, row));
      if (dense) slot_gid_[slot[i]] = g;
      if (static_cast<size_t>(g) == first_row_.size()) {
        first_row_.push_back(base + row);
      }
    }
    gid_buf_[i] = g;
  }
}

void BatchAggregator::Consume(const std::vector<const Column*>& keys,
                              const std::vector<const Column*>& args,
                              int64_t begin, int64_t end, int64_t base,
                              const uint64_t* hashes) {
  const SelIndex n = static_cast<SelIndex>(end - begin);
  gid_buf_.resize(static_cast<size_t>(n));
  if (keys.empty()) {
    if (first_row_.empty() && n > 0) first_row_.push_back(base + begin);
    std::fill(gid_buf_.begin(), gid_buf_.end(), 0);
  } else if (!slot_gid_.empty()) {
    FindDenseGroups(keys, begin, end, base);
  } else {
    if (hashes == nullptr) {
      hash_buf_.resize(static_cast<size_t>(n));
      HashKeyRange(keys, begin, end, hash_buf_.data());
      hashes = hash_buf_.data();
    }
    table_.FindOrInsertRange(keys, begin, end, hashes, nullptr,
                             gid_buf_.data());
    for (SelIndex i = 0; i < n; ++i) {
      if (static_cast<size_t>(gid_buf_[static_cast<size_t>(i)]) ==
          first_row_.size()) {
        first_row_.push_back(base + begin + i);
      }
    }
  }
  Accumulate(args, begin, nullptr, n);
}

void BatchAggregator::ConsumeRows(const std::vector<const Column*>& keys,
                                  const std::vector<const Column*>& args,
                                  const int64_t* rows, int64_t count,
                                  const uint64_t* hashes, int64_t chunk) {
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
    Accumulate(args, 0, batch, n);
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
                              (sizeof(int64_t) +
                               per_agg_.size() * sizeof(VAggState)));
}

Result<Table> BatchAggregator::Finish(const PlanNode& node) {
  // Global aggregate over empty input still yields one row.
  if (table_.key_columns().empty() && first_row_.empty()) {
    first_row_.push_back(-1);
    SyncStates();
  }
  const size_t num_groups = first_row_.size();
  std::vector<Column> out_cols;
  TableSchema out_schema;
  for (size_t k = 0; k < table_.key_columns().size(); ++k) {
    const Column& c = table_.key_columns()[k];
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
  for (const auto& c : key_cols) kptrs.push_back(c.get());
  std::vector<const Column*> aptrs;
  for (const auto& c : arg_cols) aptrs.push_back(c.get());
  BatchAggregator agg;
  if (!agg.Compile(node, kptrs, aptrs)) return false;

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
      agg.Consume(kptrs, aptrs, bgn, end, 0);
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
                kptrs, aptrs, order.data() + b,
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
