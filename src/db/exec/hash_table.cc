#include "db/exec/hash_table.h"

#include <algorithm>
#include <bit>

#include "db/exec/vector_kernels.h"

namespace dl2sql::db {

namespace {

size_t BucketsFor(int64_t keys) {
  return std::bit_ceil(static_cast<size_t>(std::max<int64_t>(keys, 16)));
}

bool AllInt64(const std::vector<Column>& cols) {
  return std::all_of(cols.begin(), cols.end(), [](const Column& c) {
    return c.type() == DataType::kInt64;
  });
}

}  // namespace

KeyHashTable KeyHashTable::ForGroups(const std::vector<DataType>& types) {
  KeyHashTable t;
  for (DataType type : types) t.keys_.emplace_back(type);
  t.owns_keys_ = true;
  t.int_keys_ = AllInt64(t.keys_);
  t.Rehash(BucketsFor(0));
  return t;
}

KeyHashTable KeyHashTable::ForJoin(std::vector<Column> keys,
                                   const uint64_t* hashes,
                                   const uint8_t* nulls) {
  KeyHashTable t;
  t.keys_ = std::move(keys);
  // Representatives are never NULL rows, so NULLs elsewhere in an INT64
  // column do not matter.
  t.int_keys_ = AllInt64(t.keys_);
  const int64_t n = t.keys_.empty() ? 0 : t.keys_[0].size();
  t.Rehash(BucketsFor(2 * n));
  std::vector<const Column*> kptrs;
  for (const Column& c : t.keys_) kptrs.push_back(&c);

  // Pass 1, ascending rows: each row's key id (new keys take the row as
  // their representative), then the row count per key.
  std::vector<KeyId> row_key(static_cast<size_t>(n));
  t.FindOrInsertRange(kptrs, 0, n, hashes, nulls, row_key.data());
  std::vector<int64_t> counts(static_cast<size_t>(t.num_keys()), 0);
  for (const KeyId k : row_key) {
    if (k != kAbsent) ++counts[static_cast<size_t>(k)];
  }
  // Pass 2: one contiguous ascending run of rows per key.
  t.offsets_.assign(counts.size() + 1, 0);
  for (size_t k = 0; k < counts.size(); ++k) {
    t.offsets_[k + 1] = t.offsets_[k] + counts[k];
  }
  t.rows_.resize(static_cast<size_t>(t.offsets_.back()));
  std::vector<int64_t> fill(t.offsets_.begin(), t.offsets_.end() - 1);
  for (int64_t r = 0; r < n; ++r) {
    const KeyId k = row_key[static_cast<size_t>(r)];
    if (k == kAbsent) continue;
    t.rows_[static_cast<size_t>(fill[static_cast<size_t>(k)]++)] = r;
  }
  return t;
}

KeyHashTable::KeyId KeyHashTable::FindOrInsert(
    const std::vector<const Column*>& probe, int64_t row, uint64_t hash) {
  const KeyId found = Find(probe, row, hash);
  return found != kAbsent ? found : InsertCopy(probe, row, hash);
}

KeyHashTable::KeyId KeyHashTable::InsertCopy(
    const std::vector<const Column*>& probe, int64_t row, uint64_t hash) {
  for (size_t c = 0; c < keys_.size(); ++c) {
    if (!probe[c]->IsValid(row)) int_keys_ = false;
    keys_[c].AppendFrom(*probe[c], row);
  }
  return Insert(hash, num_keys());
}

template <size_t kCols, bool kInsert, typename Self>
void KeyHashTable::LookupRange(Self& t, const std::vector<const Column*>& probe,
                               int64_t begin, int64_t end,
                               const uint64_t* hashes, const uint8_t* nulls,
                               KeyId* ids) {
  const int64_t* pv[kCols > 0 ? kCols : 1];
  const int64_t* kv[kCols > 0 ? kCols : 1];
  auto load_keys = [&] {
    for (size_t c = 0; c < kCols; ++c) kv[c] = t.keys_[c].ints().data();
  };
  for (size_t c = 0; c < kCols; ++c) pv[c] = probe[c]->ints().data();
  load_keys();
  for (int64_t r = begin; r < end; ++r) {
    const size_t i = static_cast<size_t>(r - begin);
    if (nulls != nullptr && nulls[i] != 0) {
      ids[i] = kAbsent;
      continue;
    }
    const uint64_t hash = hashes[i];
    KeyId k = t.heads_[hash & t.mask_];
    for (; k != kAbsent; k = t.next_[static_cast<size_t>(k)]) {
      if constexpr (kCols == 0) {
        if (t.hashes_[static_cast<size_t>(k)] == hash &&
            t.KeyEquals(probe, r, t.rep_[static_cast<size_t>(k)])) {
          break;
        }
      } else {
        // Equal integers need no hash comparison first.
        const int64_t rep = t.rep_[static_cast<size_t>(k)];
        bool equal = true;
        for (size_t c = 0; c < kCols; ++c) equal &= kv[c][rep] == pv[c][r];
        if (equal) break;
      }
    }
    if constexpr (kInsert) {
      if (k == kAbsent) {
        k = t.owns_keys_ ? t.InsertCopy(probe, r, hash) : t.Insert(hash, r);
        load_keys();
      }
    }
    ids[i] = k;
  }
}

template <bool kInsert, typename Self>
void KeyHashTable::DispatchLookup(Self& t,
                                  const std::vector<const Column*>& probe,
                                  int64_t begin, int64_t end,
                                  const uint64_t* hashes, const uint8_t* nulls,
                                  KeyId* ids) {
  // The common shapes — one or two INT64 keys whose compared rows are all
  // non-NULL — compare raw integers.
  bool ints = t.int_keys_;
  for (const Column* c : probe) {
    ints = ints && c->type() == DataType::kInt64 &&
           (nulls != nullptr || !c->HasNulls());
  }
  if (ints && t.keys_.size() == 1) {
    LookupRange<1, kInsert>(t, probe, begin, end, hashes, nulls, ids);
  } else if (ints && t.keys_.size() == 2) {
    LookupRange<2, kInsert>(t, probe, begin, end, hashes, nulls, ids);
  } else {
    LookupRange<0, kInsert>(t, probe, begin, end, hashes, nulls, ids);
  }
}

void KeyHashTable::FindRange(const std::vector<const Column*>& probe,
                             int64_t begin, int64_t end,
                             const uint64_t* hashes, const uint8_t* nulls,
                             KeyId* ids) const {
  DispatchLookup<false>(*this, probe, begin, end, hashes, nulls, ids);
}

void KeyHashTable::FindOrInsertRange(const std::vector<const Column*>& probe,
                                     int64_t begin, int64_t end,
                                     const uint64_t* hashes,
                                     const uint8_t* nulls, KeyId* ids) {
  DispatchLookup<true>(*this, probe, begin, end, hashes, nulls, ids);
}

KeyHashTable::KeyId KeyHashTable::Insert(uint64_t hash, int64_t rep) {
  const KeyId k = static_cast<KeyId>(hashes_.size());
  hashes_.push_back(hash);
  rep_.push_back(rep);
  if (hashes_.size() * 2 > heads_.size()) {
    next_.push_back(kAbsent);
    Rehash(heads_.size() * 2);
    return k;
  }
  const size_t b = hash & mask_;
  next_.push_back(heads_[b]);
  heads_[b] = k;
  return k;
}

void KeyHashTable::Rehash(size_t buckets) {
  heads_.assign(buckets, kAbsent);
  mask_ = buckets - 1;
  for (size_t k = 0; k < hashes_.size(); ++k) {
    const size_t b = hashes_[k] & mask_;
    next_[k] = heads_[b];
    heads_[b] = static_cast<KeyId>(k);
  }
}

bool KeyHashTable::KeyEquals(const std::vector<const Column*>& probe,
                             int64_t row, int64_t rep) const {
  const size_t sr = static_cast<size_t>(row);
  const size_t srep = static_cast<size_t>(rep);
  for (size_t c = 0; c < keys_.size(); ++c) {
    const Column& p = *probe[c];
    if (int_keys_ && p.type() == DataType::kInt64 && p.IsValid(row)) {
      if (p.ints()[sr] != keys_[c].ints()[srep]) return false;
      continue;
    }
    if (!vec::CanonicalKeyPartEqual(p, row, keys_[c], rep)) return false;
  }
  return true;
}

int64_t KeyHashTable::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(
      heads_.size() * sizeof(KeyId) + next_.size() * sizeof(KeyId) +
      hashes_.size() * sizeof(uint64_t) + rep_.size() * sizeof(int64_t) +
      offsets_.size() * sizeof(int64_t) + rows_.size() * sizeof(int64_t));
  if (owns_keys_) {
    for (const Column& c : keys_) bytes += static_cast<int64_t>(c.ByteSize());
  }
  return bytes;
}

}  // namespace dl2sql::db
