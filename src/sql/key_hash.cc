#include "sql/key_hash.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>

namespace sqlflow::sql {

namespace {

// Per-kind seeds keep parts of different kinds apart.
constexpr uint64_t kSeedNull = 0x6e756c6c00000001ULL;
constexpr uint64_t kSeedBool = 0x626f6f6c00000002ULL;
constexpr uint64_t kSeedInt = 0x696e740000000003ULL;
constexpr uint64_t kSeedDouble = 0x646f75626c000004ULL;
constexpr uint64_t kSeedString = 0x7374720000000005ULL;

constexpr unsigned kClassBool = 1u;
constexpr unsigned kClassNumeric = 2u;
constexpr unsigned kClassNumString = 4u;
constexpr unsigned kClassRawString = 8u;

/// Hashes `d` with -0.0 folded into 0.0 and every NaN made one NaN.
uint64_t DoubleHash(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return MixHash(bits ^ kSeedDouble);
}

uint64_t IntHash(int64_t x) {
  return MixHash(static_cast<uint64_t>(x) ^ kSeedInt);
}

uint64_t StringHash(const std::string& s) {
  return MixHash(std::hash<std::string_view>()(s) ^ kSeedString);
}

uint64_t BoolHash(bool b) { return MixHash(kSeedBool + (b ? 1 : 0)); }

/// OrderedValueCompare(x, y) == 0 for two doubles.
bool SameDouble(double x, double y) {
  return x == y || (std::isnan(x) && std::isnan(y));
}

bool JoinClassesMayError(unsigned a, unsigned b) {
  if ((a & kClassBool) != 0 && (b & ~kClassBool) != 0) return true;
  if ((b & kClassBool) != 0 && (a & ~kClassBool) != 0) return true;
  if ((a & kClassNumeric) != 0 && (b & kClassRawString) != 0) return true;
  return (b & kClassNumeric) != 0 && (a & kClassRawString) != 0;
}

}  // namespace

bool HashJoinKeyPart(const Value& v, uint64_t* hash, unsigned* classes) {
  uint64_t part = 0;
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBoolean:
      *classes |= kClassBool;
      part = BoolHash(v.boolean());
      break;
    case ValueType::kInteger:
      // Numbers compare (with each other and with numeric strings)
      // through double, so every number hashes as its double.
      *classes |= kClassNumeric;
      part = DoubleHash(static_cast<double>(v.integer()));
      break;
    case ValueType::kDouble:
      *classes |= kClassNumeric;
      part = DoubleHash(v.dbl());
      break;
    case ValueType::kString: {
      // Value::AsDouble's parse, without building its error status.
      const char* s = v.str().c_str();
      char* end = nullptr;
      double d = std::strtod(s, &end);
      const bool numeric = end != s && *end == '\0';
      *classes |= numeric ? kClassNumString : kClassRawString;
      part = numeric ? DoubleHash(d) : StringHash(v.str());
      break;
    }
  }
  *hash = CombineHash(*hash, part);
  return true;
}

uint64_t GroupValueHash(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return MixHash(kSeedNull);
    case ValueType::kBoolean:
      return BoolHash(v.boolean());
    case ValueType::kInteger:
      return IntHash(v.integer());
    case ValueType::kDouble:
      return DoubleHash(v.dbl());
    case ValueType::kString:
      return StringHash(v.str());
  }
  return 0;
}

bool GroupValueEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBoolean:
      return a.boolean() == b.boolean();
    case ValueType::kInteger:
      return a.integer() == b.integer();
    case ValueType::kDouble:
      return SameDouble(a.dbl(), b.dbl());
    case ValueType::kString:
      return a.str() == b.str();
  }
  return false;
}

uint64_t GroupValueHash(const VecCol& c, size_t i) {
  if (c.IsNull(i)) return MixHash(kSeedNull);
  switch (c.tag) {
    case VecCol::Tag::kInt:
      return IntHash(c.ints[i]);
    case VecCol::Tag::kDouble:
      return DoubleHash(c.dbls[i]);
    case VecCol::Tag::kString:
      return StringHash(*c.strs[i]);
    case VecCol::Tag::kBool:
      return BoolHash(c.bools[i] != 0);
    default:
      return MixHash(kSeedNull);
  }
}

bool GroupValueEqual(const VecCol& c, size_t i, const Value& v) {
  if (c.IsNull(i)) return v.is_null();
  switch (c.tag) {
    case VecCol::Tag::kInt:
      return v.type() == ValueType::kInteger && v.integer() == c.ints[i];
    case VecCol::Tag::kDouble:
      return v.type() == ValueType::kDouble && SameDouble(c.dbls[i], v.dbl());
    case VecCol::Tag::kString:
      return v.type() == ValueType::kString && v.str() == *c.strs[i];
    case VecCol::Tag::kBool:
      return v.type() == ValueType::kBoolean &&
             v.boolean() == (c.bools[i] != 0);
    default:
      return v.is_null();
  }
}

uint64_t GroupRowHash(const Row& row) {
  uint64_t hash = 0;
  for (const Value& v : row) hash = CombineHash(hash, GroupValueHash(v));
  return hash;
}

bool GroupRowEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!GroupValueEqual(a[i], b[i])) return false;
  }
  return true;
}

KeyHashTable::KeyHashTable(size_t expected_keys) {
  if (expected_keys == 0) return;  // allocated by the first Add
  size_t capacity = 16;
  while (capacity < expected_keys * 2) capacity *= 2;
  buckets_.resize(capacity);
  next_.reserve(expected_keys);
}

size_t KeyHashTable::FindBucket(uint64_t hash) const {
  const size_t mask = buckets_.size() - 1;
  for (size_t b = static_cast<size_t>(hash) & mask;; b = (b + 1) & mask) {
    if (buckets_[b].head == kEnd || buckets_[b].hash == hash) return b;
  }
}

uint32_t KeyHashTable::First(uint64_t hash) const {
  return buckets_.empty() ? kEnd : buckets_[FindBucket(hash)].head;
}

void KeyHashTable::Add(uint64_t hash, uint32_t id) {
  if (id >= next_.size()) next_.resize(static_cast<size_t>(id) + 1, kEnd);
  if ((used_ + 1) * 2 > buckets_.size()) {  // keep the load under 1/2
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.empty() ? 16 : old.size() * 2, Bucket{});
    for (const Bucket& b : old) {
      if (b.head != kEnd) buckets_[FindBucket(b.hash)] = b;
    }
  }
  Bucket& bucket = buckets_[FindBucket(hash)];
  if (bucket.head == kEnd) {
    bucket.hash = hash;
    bucket.head = id;
    ++used_;
  } else {
    next_[bucket.tail] = id;
  }
  bucket.tail = id;
}

bool DistinctValues::Insert(const Value& v) {
  const uint32_t id = static_cast<uint32_t>(values_.size());
  auto same = [&](uint32_t kept) { return GroupValueEqual(values_[kept], v); };
  if (!table_.FindOrAdd(GroupValueHash(v), id, same).second) return false;
  values_.push_back(v);
  return true;
}

void JoinCandidates::Build() {
  for (size_t k = 0; k < left_.classes.size(); ++k) {
    if (JoinClassesMayError(left_.classes[k], right_.classes[k])) {
      comparable_ = false;
      return;
    }
  }
  build_left_ = left_.hashes.size() < right_.hashes.size();
  const Side& build = build_left_ ? left_ : right_;
  table_ = KeyHashTable(build.hashes.size());
  for (size_t id = 0; id < build.hashes.size(); ++id) {
    if (build.hashes[id] != kNoKey) {
      table_.Add(build.hashes[id], static_cast<uint32_t>(id));
    }
  }
  if (!build_left_) return;  // ForEach walks the chains of right rows
  // Build left: count each left row's candidates over the right side,
  // then fill them in ascending right order. The fill moves each row's
  // start to its end, the next row's start, so one shift restores them.
  const size_t n = left_.hashes.size();
  offsets_.assign(n + 1, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t ri = 0; ri < right_.hashes.size(); ++ri) {
      const uint64_t h = right_.hashes[ri];
      if (h == kNoKey) continue;
      for (uint32_t li = table_.First(h); li != KeyHashTable::kEnd;
           li = table_.Next(li)) {
        if (pass == 0) {
          ++offsets_[li + 1];
        } else {
          cands_[offsets_[li]++] = static_cast<uint32_t>(ri);
        }
      }
    }
    if (pass == 0) {
      for (size_t li = 0; li < n; ++li) offsets_[li + 1] += offsets_[li];
      cands_.resize(offsets_[n]);
    }
  }
  for (size_t li = n; li > 0; --li) offsets_[li] = offsets_[li - 1];
  offsets_[0] = 0;
}

}  // namespace sqlflow::sql
