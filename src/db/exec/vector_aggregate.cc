#include "db/exec/vector_aggregate.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Folds one argument value into a generic state: NULLs are skipped, COUNT
/// over BOOL counts TRUE values (the paper's count(nUDF(...) = TRUE);
/// ClickHouse would use countIf), SUM/AVG/STDDEV add Value::AsDouble, and
/// MIN/MAX replace the extremum only when Value::Compare finds the value
/// strictly better, so ties keep the first-seen value.
Status FoldValue(AggFunc f, const Value& v, GenericAggState* st) {
  if (v.is_null()) return Status::OK();
  switch (f) {
    case AggFunc::kCountStar:  // no argument: the caller counts its rows
      break;
    case AggFunc::kCount:
      if (v.type() != DataType::kBool || v.bool_value()) ++st->count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
    case AggFunc::kStddevSamp: {
      DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
      ++st->count;
      st->sum += d;
      st->sumsq += d * d;
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (st->extremum.is_null()) {
        st->extremum = v;
        break;
      }
      const int c = v.Compare(st->extremum);
      if (f == AggFunc::kMin ? c < 0 : c > 0) st->extremum = v;
      break;
    }
  }
  return Status::OK();
}

/// Final value of aggregate `f` from its row count, sums and extremum (NULL
/// when no row set one).
Value FinalValue(AggFunc f, int64_t count, double sum, double sumsq,
                 Value extremum) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Value::Int(count);
    case AggFunc::kSum:
      return count == 0 ? Value::Null() : Value::Float(sum);
    case AggFunc::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Float(sum / static_cast<double>(count));
    case AggFunc::kStddevSamp: {
      if (count < 2) return Value::Null();
      const double mean = sum / static_cast<double>(count);
      const double var = (sumsq - static_cast<double>(count) * mean * mean) /
                         static_cast<double>(count - 1);
      return Value::Float(std::sqrt(std::max(0.0, var)));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extremum;
  }
  return Value::Null();
}

}  // namespace

ArgShape ShapeOf(const ArgRead& arg) {
  ArgShape s;
  if (arg.x.col != nullptr) {
    s.type = arg.x.col->type();
    s.nulls = arg.x.col->HasNulls();
  }
  if (arg.y.col != nullptr) {
    s.factor_type = arg.y.col->type();
    s.factor_nulls = arg.y.col->HasNulls();
  }
  return s;
}

bool BatchAggregator::Compile(const PlanNode& node,
                              const std::vector<DataType>& key_types,
                              const std::vector<ArgShape>& args,
                              bool vectorized) {
  specs_.clear();
  for (size_t a = 0; a < node.agg_calls.size(); ++a) {
    const ArgShape& arg = args[a];
    VAggSpec s;
    s.func = node.agg_calls[a]->agg_func;
    s.arg_type = arg.type;
    s.kind = VAggSpec::Kind::kGeneric;
    const bool numeric = IsNumeric(arg.type) && !arg.nulls;
    const bool sums = s.func == AggFunc::kSum || s.func == AggFunc::kAvg ||
                      s.func == AggFunc::kStddevSamp;
    if (arg.factor_type != DataType::kNull) {
      // The generic state reads one column: a product needs a sum kernel.
      if (!vectorized || !sums || !numeric || !IsNumeric(arg.factor_type) ||
          arg.factor_nulls) {
        return false;
      }
      if (arg.factor_type == DataType::kFloat64) {
        s.arg_type = DataType::kFloat64;
      }
    }
    if (vectorized && !arg.nulls) {
      switch (s.func) {
        case AggFunc::kCountStar:
          s.kind = VAggSpec::Kind::kCountStar;
          break;
        case AggFunc::kCount:
          if (arg.type != DataType::kNull) {
            s.kind = arg.type == DataType::kBool ? VAggSpec::Kind::kCountBool
                                                 : VAggSpec::Kind::kCountAll;
          }
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
        case AggFunc::kStddevSamp:
          if (numeric) {
            s.kind = VAggSpec::Kind::kSum;
            s.squares = s.func == AggFunc::kStddevSamp;
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          if (numeric) {
            s.kind = VAggSpec::Kind::kMinMax;
            s.want_min = s.func == AggFunc::kMin;
          }
          break;
      }
    }
    specs_.push_back(s);
  }
  table_ = KeyHashTable::ForGroups(key_types);
  first_row_.clear();
  typed_.assign(specs_.size(), {});
  generic_.assign(specs_.size(), {});
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
  for (size_t a = 0; a < specs_.size(); ++a) {
    if (specs_[a].kind == VAggSpec::Kind::kGeneric) {
      generic_[a].resize(first_row_.size());
    } else {
      typed_[a].resize(first_row_.size());
    }
  }
}

Status BatchAggregator::Accumulate(const std::vector<ArgRead>& args,
                                   int64_t begin, SelIndex n) {
  SyncStates();
  const SelIndex* gids = gid_buf_.data();
  for (size_t a = 0; a < specs_.size(); ++a) {
    const VAggSpec& s = specs_[a];
    VAggState* states = typed_[a].data();
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
      case VAggSpec::Kind::kGeneric: {
        GenericAggState* gstates = generic_[a].data();
        const ColumnRead& x = args[a].x;
        for (SelIndex i = 0; i < n; ++i) {
          GenericAggState& st = gstates[gids[i]];
          if (x.col == nullptr) {  // COUNT(*)
            ++st.count;
            continue;
          }
          DL2SQL_RETURN_NOT_OK(FoldValue(
              s.func, x.col->GetValue(x.rows != nullptr ? x.rows[i] : begin + i),
              &st));
        }
        break;
      }
    }
  }
  return Status::OK();
}

void BatchAggregator::FindDenseGroups(const std::vector<ColumnRead>& keys,
                                      int64_t begin, SelIndex n, int64_t base,
                                      const int64_t* ids) {
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
      const int64_t row = begin + i;
      g = static_cast<KeyHashTable::KeyId>(first_row_.size());
      first_row_.push_back(ids != nullptr ? ids[row] : base + row);
      for (size_t k = 0; k < dense_keys_.size(); ++k) {
        const uint64_t d = slot[i] / slot_stride_[k] % slot_span_[k];
        dense_keys_[k].mutable_ints().push_back(
            static_cast<int64_t>(static_cast<uint64_t>(slot_lo_[k]) + d));
      }
    }
    gid_buf_[static_cast<size_t>(i)] = g;
  }
}

Status BatchAggregator::Consume(const std::vector<ColumnRead>& keys,
                                const std::vector<ArgRead>& args,
                                int64_t begin, int64_t end, int64_t base,
                                const uint64_t* hashes, const int64_t* ids) {
  const SelIndex n = static_cast<SelIndex>(end - begin);
  gid_buf_.resize(static_cast<size_t>(n));
  auto number = [&](int64_t row) {
    return ids != nullptr ? ids[row] : base + row;
  };
  if (keys.empty()) {
    if (first_row_.empty() && n > 0) first_row_.push_back(number(begin));
    std::fill(gid_buf_.begin(), gid_buf_.end(), 0);
  } else if (!slot_gid_.empty()) {
    FindDenseGroups(keys, begin, n, base, ids);
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
        first_row_.push_back(number(begin + i));
      }
    }
  }
  return Accumulate(args, begin, n);
}

Status BatchAggregator::ConsumeResident(const std::vector<ColumnRead>& keys,
                                        const std::vector<ArgRead>& args,
                                        int64_t begin, int64_t end,
                                        std::vector<int64_t>* absent) {
  const SelIndex n = static_cast<SelIndex>(end - begin);
  gid_buf_.resize(static_cast<size_t>(n));
  if (keys.empty()) {
    std::fill(gid_buf_.begin(), gid_buf_.end(), 0);
  } else {
    std::vector<const Column*> cols;
    for (const ColumnRead& k : keys) cols.push_back(k.col);
    hash_buf_.resize(static_cast<size_t>(n));
    HashKeyRange(cols, begin, end, hash_buf_.data());
    table_.FindRange(cols, begin, end, hash_buf_.data(), nullptr,
                     gid_buf_.data());
  }
  // Compact the resident rows' groups to the front of gid_buf_ and fold
  // those rows through their row ids.
  sel_buf_.clear();
  for (SelIndex i = 0; i < n; ++i) {
    const SelIndex g = gid_buf_[static_cast<size_t>(i)];
    if (g == KeyHashTable::kAbsent) {
      absent->push_back(begin + i);
    } else {
      gid_buf_[sel_buf_.size()] = g;
      sel_buf_.push_back(begin + i);
    }
  }
  std::vector<ArgRead> sel_args = args;
  for (ArgRead& a : sel_args) {
    if (a.x.col != nullptr) a.x.rows = sel_buf_.data();
    if (a.y.col != nullptr) a.y.rows = sel_buf_.data();
  }
  return Accumulate(sel_args, 0, static_cast<SelIndex>(sel_buf_.size()));
}

void BatchAggregator::AdmitNulls(const std::vector<ArgShape>& args) {
  for (size_t a = 0; a < specs_.size(); ++a) {
    VAggSpec& s = specs_[a];
    if (s.kind == VAggSpec::Kind::kGeneric || !args[a].nulls) continue;
    std::vector<GenericAggState>& generic = generic_[a];
    generic.resize(typed_[a].size());
    for (size_t g = 0; g < generic.size(); ++g) {
      const VAggState& t = typed_[a][g];
      generic[g].count = t.count;
      generic[g].sum = t.sum;
      generic[g].sumsq = t.sumsq;
      if (t.has_minmax) {
        generic[g].extremum = s.arg_type == DataType::kInt64
                                  ? Value::Int(t.imin_max)
                                  : Value::Float(t.fmin_max);
      }
    }
    typed_[a] = {};
    s.kind = VAggSpec::Kind::kGeneric;
  }
}

int64_t BatchAggregator::ByteSize() const {
  size_t per_group = sizeof(int64_t) * (1 + dense_keys_.size());
  for (const VAggSpec& s : specs_) {
    per_group += s.kind == VAggSpec::Kind::kGeneric ? sizeof(GenericAggState)
                                                    : sizeof(VAggState);
  }
  return table_.ByteSize() +
         static_cast<int64_t>(first_row_.size() * per_group);
}

Result<Column> BatchAggregator::FinalColumn(size_t a) const {
  const VAggSpec& s = specs_[a];
  DataType type = DataType::kFloat64;
  if (s.func == AggFunc::kCount || s.func == AggFunc::kCountStar) {
    type = DataType::kInt64;
  } else if ((s.func == AggFunc::kMin || s.func == AggFunc::kMax) &&
             s.arg_type != DataType::kNull) {
    type = s.arg_type;
  }
  Column c(type);
  c.Reserve(static_cast<int64_t>(first_row_.size()));
  for (size_t g = 0; g < first_row_.size(); ++g) {
    Value v;
    if (s.kind == VAggSpec::Kind::kGeneric) {
      const GenericAggState& st = generic_[a][g];
      v = FinalValue(s.func, st.count, st.sum, st.sumsq, st.extremum);
    } else {
      const VAggState& st = typed_[a][g];
      Value extremum;
      if (st.has_minmax) {
        extremum = s.arg_type == DataType::kInt64 ? Value::Int(st.imin_max)
                                                  : Value::Float(st.fmin_max);
      }
      v = FinalValue(s.func, st.count, st.sum, st.sumsq, std::move(extremum));
    }
    DL2SQL_RETURN_NOT_OK(c.Append(std::move(v)));
  }
  return c;
}

Result<Table> BatchAggregator::Finish(const PlanNode& node) {
  const std::vector<Column>& key_cols =
      slot_gid_.empty() ? table_.key_columns() : dense_keys_;
  // Global aggregate over empty input still yields one row.
  if (key_cols.empty() && first_row_.empty()) {
    first_row_.push_back(-1);
    SyncStates();
  }
  std::vector<Column> out_cols;
  TableSchema out_schema;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const Column& c = key_cols[k];
    out_schema.AddField({node.group_names[k], c.type()});
    out_cols.push_back(c);  // one row per group, first-seen order
  }
  for (size_t a = 0; a < specs_.size(); ++a) {
    DL2SQL_ASSIGN_OR_RETURN(Column c, FinalColumn(a));
    out_schema.AddField({node.agg_names[a], c.type()});
    out_cols.push_back(std::move(c));
  }
  return Table::FromColumns(std::move(out_schema), std::move(out_cols));
}

}  // namespace dl2sql::db::vec
