/// \file hash_partitioner.h
/// \brief Deterministic hash partitioning of rows across cluster shards.
///
/// The coordinator routes INSERTs (and tests route seed data) by
/// `ShardIndexFor(partition key value, num_shards)`. The hash must be stable
/// across processes, builds, and platforms — a re-started coordinator has to
/// agree with the shard layout written by its predecessor — so it is defined
/// here from first principles: a canonical byte encoding of the key value
/// (the same type-byte layout as db/exec/row_key.h, with explicitly
/// little-endian integer serialization) fed through 64-bit FNV-1a.
#pragma once

#include <cstdint>

#include "db/value.h"

namespace dl2sql::cluster {

/// 64-bit FNV-1a over the canonical encoding of `v`: one type byte, then a
/// fixed- or length-prefixed payload. Integral-valued floats encode as ints,
/// mirroring row_key.h, so a key of 3 and 3.0 land on the same shard.
uint64_t PartitionHash(const db::Value& v);

/// Shard owning partition-key value `v`: PartitionHash(v) % num_shards.
/// `num_shards` must be >= 1.
int ShardIndexFor(const db::Value& v, int num_shards);

}  // namespace dl2sql::cluster
