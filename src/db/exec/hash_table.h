/// \file hash_table.h
/// \brief The executor's one hash table over canonical row keys: join build
/// sides (in-memory and grace partitions), prebuilt base-table indexes,
/// group-by key maps, the symmetric hash join's key numbering and the
/// coordinator's partial-aggregate merge all use it.
///
/// Layout: the table holds distinct keys. Bucket heads (a power-of-two
/// array indexed by the low bits of the canonical key hash) start chains
/// threaded through a `next` array, one link per distinct key, with the full
/// 64-bit hash kept beside each key so a chain step compares hashes before
/// it compares key values. Hashes come from vec::HashKeyRange and key
/// equality is vec::CanonicalKeyPartEqual, so an INT64 3 finds a FLOAT64
/// 3.0 and keys compare exactly like row_key.h's encodings.
///
/// A join table additionally lists, per distinct key, the build rows holding
/// it in ascending row order (one contiguous run per key), so a probe visits
/// matches in build-row order with one key comparison per probe row; rows
/// with a NULL key part are never listed and never match. A grouping table
/// copies each new key into its own columns, one row per group in
/// first-seen order, so callers may feed it batch-local key columns.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "db/column.h"

namespace dl2sql {
class ScopedMemCharge;
}

namespace dl2sql::db {

struct EvalContext;

class KeyHashTable {
 public:
  using KeyId = int32_t;
  static constexpr KeyId kAbsent = -1;

  KeyHashTable() = default;

  /// Empty grouping table whose keys have the given column types.
  static KeyHashTable ForGroups(const std::vector<DataType>& types);

  /// Join build table over every row of `keys` (equal-length columns);
  /// `hashes[r]` is vec::HashKeyRange's hash of row r and `nulls[r]` is
  /// non-zero when row r has a NULL key part.
  static KeyHashTable ForJoin(std::vector<Column> keys, const uint64_t* hashes,
                              const uint8_t* nulls);

  /// Id of the key of `probe` row `row` (whose canonical hash is `hash`), or
  /// kAbsent.
  KeyId Find(const std::vector<const Column*>& probe, int64_t row,
             uint64_t hash) const {
    for (KeyId k = heads_[hash & mask_]; k != kAbsent;
         k = next_[static_cast<size_t>(k)]) {
      if (hashes_[static_cast<size_t>(k)] == hash &&
          KeyEquals(probe, row, rep_[static_cast<size_t>(k)])) {
        return k;
      }
    }
    return kAbsent;
  }

  /// Grouping tables: id of the key of `probe` row `row`, adding it (and
  /// copying its values into key_columns()) as the next id when absent.
  KeyId FindOrInsert(const std::vector<const Column*>& probe, int64_t row,
                     uint64_t hash);

  /// \name Batched lookups
  /// ids[i] is the id of row begin + i of `probe`, whose hash is hashes[i].
  /// `nulls`, when given, flags rows with a NULL key part: their id is
  /// kAbsent.
  /// @{
  /// Absent keys get kAbsent.
  void FindRange(const std::vector<const Column*>& probe, int64_t begin,
                 int64_t end, const uint64_t* hashes, const uint8_t* nulls,
                 KeyId* ids) const;
  /// Absent keys are added, in row order: a grouping table copies their
  /// values, a join table takes the row as their representative.
  void FindOrInsertRange(const std::vector<const Column*>& probe,
                         int64_t begin, int64_t end, const uint64_t* hashes,
                         const uint8_t* nulls, KeyId* ids);
  /// @}

  int64_t num_keys() const { return static_cast<int64_t>(hashes_.size()); }

  /// \name Join tables: build rows holding key `k`, ascending.
  /// @{
  const int64_t* rows_begin(KeyId k) const {
    return rows_.data() + offsets_[static_cast<size_t>(k)];
  }
  const int64_t* rows_end(KeyId k) const {
    return rows_.data() + offsets_[static_cast<size_t>(k) + 1];
  }
  /// @}

  /// Key values; for a grouping table row k holds key k.
  const std::vector<Column>& key_columns() const { return keys_; }

  /// Approximate heap bytes of the table's own arrays (key columns a join
  /// table shares with its input are not counted).
  int64_t ByteSize() const;
  /// Upper bound of ByteSize() for a join table over `rows` build rows:
  /// the layout above with every row a distinct key.
  static int64_t JoinByteSizeBound(int64_t rows);

 private:
  bool KeyEquals(const std::vector<const Column*>& probe, int64_t row,
                 int64_t rep) const;
  /// The batched lookups' loop; the INT64 specializations (kCols > 0)
  /// compare raw integers, kCols == 0 compares canonical key parts.
  template <size_t kCols, bool kInsert, typename Self>
  static void LookupRange(Self& t, const std::vector<const Column*>& probe,
                          int64_t begin, int64_t end, const uint64_t* hashes,
                          const uint8_t* nulls, KeyId* ids);
  template <bool kInsert, typename Self>
  static void DispatchLookup(Self& t, const std::vector<const Column*>& probe,
                             int64_t begin, int64_t end,
                             const uint64_t* hashes, const uint8_t* nulls,
                             KeyId* ids);
  /// Grouping tables: appends the key of `probe` row `row`, copying its
  /// values.
  KeyId InsertCopy(const std::vector<const Column*>& probe, int64_t row,
                   uint64_t hash);
  /// Appends a key whose values sit at row `rep` of keys_.
  KeyId Insert(uint64_t hash, int64_t rep);
  void Rehash(size_t buckets);

  std::vector<Column> keys_;
  /// True while every key is stored as a non-NULL INT64: KeyEquals then
  /// compares integers directly.
  bool int_keys_ = false;
  bool owns_keys_ = false;
  std::vector<KeyId> heads_ = std::vector<KeyId>(1, kAbsent);
  uint64_t mask_ = 0;
  std::vector<KeyId> next_;
  std::vector<uint64_t> hashes_;
  std::vector<int64_t> rep_;
  std::vector<int64_t> offsets_;
  std::vector<int64_t> rows_;
};

/// Canonical hashes (vec::HashKeyRange) and NULL flags (vec::KeyNullRange)
/// of `keys`' rows, a morsel at a time (disjoint writes, so any pool wired
/// into `ctx` may run the loop); with `table`, also each row's key id in it.
Status HashJoinKeys(const std::vector<const Column*>& keys,
                    const KeyHashTable* table, EvalContext* ctx,
                    std::vector<uint64_t>* hash, std::vector<uint8_t>* nulls,
                    std::vector<KeyHashTable::KeyId>* ids);

/// The join build step: a table over every row of `keys` (rows with a NULL
/// key part are never listed), charged to `scratch` with its transient hash
/// arrays. A prebuilt index is built by it too.
Result<KeyHashTable> BuildJoinTable(std::vector<Column> keys,
                                    EvalContext* ctx,
                                    ScopedMemCharge* scratch);

/// Upper bound of what BuildJoinTable charges for `rows` build rows.
int64_t BuildJoinTableBound(int64_t rows);

}  // namespace dl2sql::db
