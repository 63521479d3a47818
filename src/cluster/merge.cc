#include "cluster/merge.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "db/exec/hash_table.h"
#include "db/exec/vector_kernels.h"
#include "db/value.h"

namespace dl2sql::cluster {

namespace {

/// Lexicographic Value::Compare over two key tuples with per-key direction.
/// Returns <0, 0, >0.
int CompareKeyTuples(const std::vector<db::Value>& a,
                     const std::vector<db::Value>& b,
                     const std::vector<SortKeySpec>* specs) {
  for (size_t i = 0; i < a.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (specs != nullptr && !(*specs)[i].ascending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

std::vector<db::Value> ExtractKeys(const db::Table& t, int64_t row,
                                   const std::vector<SortKeySpec>& keys) {
  std::vector<db::Value> out;
  out.reserve(keys.size());
  for (const SortKeySpec& k : keys) out.push_back(t.column(k.column).GetValue(row));
  return out;
}

}  // namespace

Result<db::Table> ConcatTables(const db::TableSchema& schema,
                               const std::vector<db::Table>& parts,
                               int64_t limit) {
  db::Table out(schema);
  for (const db::Table& part : parts) {
    if (limit >= 0 && out.num_rows() >= limit) break;
    DL2SQL_RETURN_NOT_OK(out.AppendTable(part));
  }
  if (limit >= 0 && out.num_rows() > limit) {
    std::vector<int64_t> keep(static_cast<size_t>(limit));
    std::iota(keep.begin(), keep.end(), 0);
    out = out.TakeRows(keep);
  }
  return out;
}

Result<db::Table> MergeSortedTables(const db::TableSchema& schema,
                                    const std::vector<db::Table>& parts,
                                    const std::vector<SortKeySpec>& keys,
                                    int64_t limit) {
  db::Table out(schema);
  std::vector<int64_t> cursor(parts.size(), 0);
  while (limit < 0 || out.num_rows() < limit) {
    // Linear scan beats a heap at cluster-sized fan-ins, and the tie rule —
    // strictly-smaller wins, so equal keys keep the lowest shard index —
    // is what makes the merge stable across shards.
    int best = -1;
    std::vector<db::Value> best_keys;
    for (size_t s = 0; s < parts.size(); ++s) {
      if (cursor[s] >= parts[s].num_rows()) continue;
      std::vector<db::Value> k = ExtractKeys(parts[s], cursor[s], keys);
      if (best < 0 || CompareKeyTuples(k, best_keys, &keys) < 0) {
        best = static_cast<int>(s);
        best_keys = std::move(k);
      }
    }
    if (best < 0) break;
    DL2SQL_RETURN_NOT_OK(
        out.AppendRow(parts[static_cast<size_t>(best)].GetRow(cursor[best])));
    ++cursor[best];
  }
  return out;
}

Result<db::Table> MergeAggregatePartials(
    const db::TableSchema& out_schema, const std::vector<db::Table>& parts,
    int num_keys, const std::vector<MergeOutputSpec>& outputs) {
  /// Running state of one output column within one merged group.
  struct Acc {
    int64_t count = 0;     // kCount
    double sum = 0;        // kSum / kAvg numerator
    int64_t sum_count = 0; // kAvg denominator
    bool seen = false;     // any non-NULL partial folded in
    db::Value minmax;      // kMin / kMax (NULL = none yet)
  };

  // Groups are numbered in first-seen order by a grouping table over the
  // partials' leading key columns (canonical keys, as hash aggregation
  // groups them: 3 and 3.0 are one group, NULLs form one group). Without
  // keys every row is group 0: a global aggregate yields its one row even
  // when every shard's partial went missing (COUNT 0, SUM/AVG/MIN/MAX NULL).
  std::vector<db::DataType> key_types;
  for (int k = 0; k < num_keys && !parts.empty(); ++k) {
    key_types.push_back(parts[0].column(k).type());
  }
  db::KeyHashTable groups = db::KeyHashTable::ForGroups(key_types);
  const std::vector<Acc> empty_accs(outputs.size());
  std::vector<std::vector<Acc>> accs(num_keys == 0 ? 1 : 0, empty_accs);
  std::vector<uint64_t> hashes;
  std::vector<db::KeyHashTable::KeyId> ids;
  for (const db::Table& part : parts) {
    const int64_t rows = part.num_rows();
    ids.assign(static_cast<size_t>(rows), 0);
    if (num_keys > 0) {
      std::vector<const db::Column*> keys;
      for (int k = 0; k < num_keys; ++k) {
        DL2SQL_CHECK(part.column(k).type() == key_types[static_cast<size_t>(k)])
            << "aggregate partials disagree on key column " << k << "'s type";
        keys.push_back(&part.column(k));
      }
      hashes.resize(static_cast<size_t>(rows));
      db::vec::HashKeyRange(keys, 0, rows, hashes.data());
      groups.FindOrInsertRange(keys, 0, rows, hashes.data(),
                               /*nulls=*/nullptr, ids.data());
      accs.resize(static_cast<size_t>(groups.num_keys()), empty_accs);
    }
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<Acc>& g =
          accs[static_cast<size_t>(ids[static_cast<size_t>(r)])];
      for (size_t o = 0; o < outputs.size(); ++o) {
        const MergeOutputSpec& spec = outputs[o];
        if (spec.kind == MergeOutputSpec::Kind::kGroupKey) continue;
        Acc& acc = g[o];
        const db::Value v = part.column(spec.partial_index).GetValue(r);
        switch (spec.kind) {
          case MergeOutputSpec::Kind::kCount: {
            DL2SQL_ASSIGN_OR_RETURN(int64_t n, v.AsInt());
            acc.count += n;
            break;
          }
          case MergeOutputSpec::Kind::kSum:
            // A NULL partial sum means that shard saw no non-NULL rows for
            // this group; it must not pull the merged SUM to 0.
            if (!v.is_null()) {
              DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
              acc.sum += d;
              acc.seen = true;
            }
            break;
          case MergeOutputSpec::Kind::kAvg: {
            if (!v.is_null()) {
              DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
              acc.sum += d;
            }
            const db::Value c = part.column(spec.count_index).GetValue(r);
            DL2SQL_ASSIGN_OR_RETURN(int64_t n, c.AsInt());
            acc.sum_count += n;
            break;
          }
          case MergeOutputSpec::Kind::kMin:
            if (!v.is_null() &&
                (acc.minmax.is_null() || v.Compare(acc.minmax) < 0)) {
              acc.minmax = v;
            }
            break;
          case MergeOutputSpec::Kind::kMax:
            if (!v.is_null() &&
                (acc.minmax.is_null() || v.Compare(acc.minmax) > 0)) {
              acc.minmax = v;
            }
            break;
          case MergeOutputSpec::Kind::kGroupKey:
            break;
        }
      }
    }
  }

  const std::vector<db::Column>& key_cols = groups.key_columns();
  std::vector<int64_t> order(accs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (const db::Column& col : key_cols) {
      const int c = col.GetValue(a).Compare(col.GetValue(b));
      if (c != 0) return c < 0;
    }
    return false;
  });

  db::Table out(out_schema);
  for (const int64_t g : order) {
    std::vector<db::Value> row;
    row.reserve(outputs.size());
    for (size_t o = 0; o < outputs.size(); ++o) {
      const MergeOutputSpec& spec = outputs[o];
      const Acc& acc = accs[static_cast<size_t>(g)][o];
      switch (spec.kind) {
        case MergeOutputSpec::Kind::kGroupKey:
          row.push_back(key_cols[static_cast<size_t>(spec.partial_index)]
                            .GetValue(g));
          break;
        case MergeOutputSpec::Kind::kCount:
          row.push_back(db::Value::Int(acc.count));
          break;
        case MergeOutputSpec::Kind::kSum:
          row.push_back(acc.seen ? db::Value::Float(acc.sum)
                                 : db::Value::Null());
          break;
        case MergeOutputSpec::Kind::kAvg:
          row.push_back(acc.sum_count == 0
                            ? db::Value::Null()
                            : db::Value::Float(
                                  acc.sum /
                                  static_cast<double>(acc.sum_count)));
          break;
        case MergeOutputSpec::Kind::kMin:
        case MergeOutputSpec::Kind::kMax:
          row.push_back(acc.minmax);
          break;
      }
    }
    DL2SQL_RETURN_NOT_OK(out.AppendRow(row));
  }
  return out;
}

Result<db::Table> SortAndLimit(db::Table table,
                               const std::vector<SortKeySpec>& keys,
                               int64_t limit) {
  if (!keys.empty()) {
    std::vector<int64_t> order(static_cast<size_t>(table.num_rows()));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return CompareKeyTuples(ExtractKeys(table, a, keys),
                              ExtractKeys(table, b, keys), &keys) < 0;
    });
    table = table.TakeRows(order);
  }
  if (limit >= 0 && table.num_rows() > limit) {
    std::vector<int64_t> keep(static_cast<size_t>(limit));
    std::iota(keep.begin(), keep.end(), 0);
    table = table.TakeRows(keep);
  }
  return table;
}

}  // namespace dl2sql::cluster
