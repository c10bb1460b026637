#ifndef SQLFLOW_SQL_KEY_HASH_H_
#define SQLFLOW_SQL_KEY_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sql/batch.h"
#include "sql/result_set.h"

namespace sqlflow::sql {

// Typed key hashing for every equality structure of both SELECT
// executors: hash joins, GROUP BY, DISTINCT, UNION and COUNT(DISTINCT)
// key one KeyHashTable by a 64-bit hash of the values, with no per-row
// key string. There are two notions of "same key":
//  * join equality (HashJoinKeyPart), the ON clause's coercing `=`:
//    numbers and numeric strings hash as one double, so 1, 1.0 and '1'
//    hash alike. Unequal values may collide (2^53 and 2^53+1; '1' and
//    '1.0'); the executors re-check the ON clause on every candidate;
//  * group identity (GroupValueHash/GroupValueEqual): both NULL, or the
//    same ValueType and equal. DOUBLEs compare as OrderedValueCompare
//    does: -0.0 equals 0.0 and every NaN equals every other NaN. INTEGER
//    1 and DOUBLE 1.0 are different groups.

/// murmur3's fmix64 finalizer: a bijection that spreads small integers
/// over all 64 bits.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// Folds one part into a multi-column key hash (order-sensitive).
inline uint64_t CombineHash(uint64_t seed, uint64_t part) {
  return MixHash(seed ^ (part + 0x9e3779b97f4a7c15ULL));
}

/// Folds join key part `v` into `*hash` and ORs its value class (bool,
/// number, numeric string, other string) into `*classes`. Returns false
/// for NULL, which never matches and has no class.
bool HashJoinKeyPart(const Value& v, uint64_t* hash, unsigned* classes);

uint64_t GroupValueHash(const Value& v);
bool GroupValueEqual(const Value& a, const Value& b);
/// The same over element i of a batch column, with no Value built.
uint64_t GroupValueHash(const VecCol& c, size_t i);
bool GroupValueEqual(const VecCol& c, size_t i, const Value& v);
uint64_t GroupRowHash(const Row& row);
bool GroupRowEqual(const Row& a, const Row& b);

/// Open-addressing table from a 64-bit key hash to a chain of dense ids
/// (row positions or group numbers). Chains live in one flat array
/// indexed by id and keep insertion order. The caller decides equality.
class KeyHashTable {
 public:
  static constexpr uint32_t kEnd = 0xFFFFFFFFu;

  explicit KeyHashTable(size_t expected_keys = 0);

  /// Appends `id` to the chain of `hash`; each id is added once.
  void Add(uint64_t hash, uint32_t id);
  /// First id in the chain of `hash` (kEnd when none); Next walks on.
  uint32_t First(uint64_t hash) const;
  uint32_t Next(uint32_t id) const { return next_[id]; }

  /// The id in `hash`'s chain for which `same(id)` holds, or else
  /// `new_id`, added; `second` tells whether it was added.
  template <typename Same>
  std::pair<uint32_t, bool> FindOrAdd(uint64_t hash, uint32_t new_id,
                                      const Same& same) {
    for (uint32_t id = First(hash); id != kEnd; id = next_[id]) {
      if (same(id)) return {id, false};
    }
    Add(hash, new_id);
    return {new_id, true};
  }

 private:
  struct Bucket {
    uint64_t hash = 0;
    uint32_t head = kEnd;  // kEnd: empty bucket
    uint32_t tail = kEnd;
  };
  size_t FindBucket(uint64_t hash) const;

  std::vector<Bucket> buckets_;  // power of two, linear probing
  std::vector<uint32_t> next_;
  size_t used_ = 0;
};

/// A set of values under group identity (COUNT(DISTINCT)).
class DistinctValues {
 public:
  /// Adds `v`; true when no equal value was there yet.
  bool Insert(const Value& v);

 private:
  KeyHashTable table_;
  std::vector<Value> values_;
};

/// The candidate pairs of an equi-join. `left_key(row, k)` and
/// `right_key(row, k)` yield key part k of a row. One pass per side
/// hashes the keys and collects each key column's value classes; the
/// smaller side is then indexed. For each left row, ascending, ForEach
/// yields its candidate right rows, ascending: the nested loop's order.
class JoinCandidates {
 public:
  template <typename LeftKey, typename RightKey>
  JoinCandidates(size_t left_rows, size_t right_rows, size_t keys,
                 const LeftKey& left_key, const RightKey& right_key)
      : left_(HashSide(left_rows, keys, left_key)),
        right_(HashSide(right_rows, keys, right_key)) {
    Build();
  }

  /// False when some key column pair could raise a TypeError under the
  /// comparison rules (bool against anything else, number against a
  /// non-numeric string): the nested loop surfaces such errors, which a
  /// hash join would skip, so the caller must nested-loop instead.
  bool comparable() const { return comparable_; }

  /// Calls fn(ri) for each candidate of left row li, stopping at the
  /// first error.
  template <typename Fn>
  Status ForEach(size_t li, const Fn& fn) const {
    if (build_left_) {
      for (size_t k = offsets_[li]; k < offsets_[li + 1]; ++k) {
        SQLFLOW_RETURN_IF_ERROR(fn(static_cast<size_t>(cands_[k])));
      }
    } else if (left_.hashes[li] != kNoKey) {
      for (uint32_t ri = table_.First(left_.hashes[li]);
           ri != KeyHashTable::kEnd; ri = table_.Next(ri)) {
        SQLFLOW_RETURN_IF_ERROR(fn(static_cast<size_t>(ri)));
      }
    }
    return Status::OK();
  }

 private:
  static constexpr uint64_t kNoKey = 0;  // a row with a NULL key part

  struct Side {
    std::vector<uint64_t> hashes;   // per row
    std::vector<unsigned> classes;  // per key column
  };

  // Every part is classified, also in rows with a NULL part: the nested
  // loop would still compare their other parts. A real hash equal to
  // kNoKey moves to 1, a collision the re-check absorbs.
  template <typename KeyAt>
  static Side HashSide(size_t rows, size_t keys, const KeyAt& key_at) {
    Side side{std::vector<uint64_t>(rows), std::vector<unsigned>(keys, 0)};
    for (size_t r = 0; r < rows; ++r) {
      uint64_t hash = 0;
      bool matchable = true;
      for (size_t k = 0; k < keys; ++k) {
        matchable &= HashJoinKeyPart(key_at(r, k), &hash, &side.classes[k]);
      }
      side.hashes[r] = !matchable ? kNoKey : hash == kNoKey ? 1 : hash;
    }
    return side;
  }
  void Build();

  Side left_;
  Side right_;
  bool comparable_ = true;
  bool build_left_ = false;
  KeyHashTable table_;
  std::vector<size_t> offsets_;  // build left: CSR start per left row
  std::vector<uint32_t> cands_;  // build left: right rows, by left row
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_KEY_HASH_H_
