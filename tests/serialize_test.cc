#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "serialize/basic_writables.h"
#include "serialize/comparators.h"
#include "serialize/dedup.h"
#include "serialize/io.h"
#include "serialize/registry.h"
#include "sysml/matrix_block.h"
#include "workloads/spmv.h"

namespace m3r::serialize {
namespace {

TEST(DataIoTest, PrimitivesRoundTrip) {
  DataOutput out;
  out.WriteByte(0xab);
  out.WriteBool(true);
  out.WriteU16(0x1234);
  out.WriteI32(-5);
  out.WriteI64(-1234567890123ll);
  out.WriteFloat(1.5f);
  out.WriteDouble(-2.25);
  out.WriteVarU64(300);
  out.WriteVarI64(-300);
  out.WriteString("hello");

  DataInput in(out.buffer());
  EXPECT_EQ(in.ReadByte(), 0xab);
  EXPECT_TRUE(in.ReadBool());
  EXPECT_EQ(in.ReadU16(), 0x1234);
  EXPECT_EQ(in.ReadI32(), -5);
  EXPECT_EQ(in.ReadI64(), -1234567890123ll);
  EXPECT_EQ(in.ReadFloat(), 1.5f);
  EXPECT_EQ(in.ReadDouble(), -2.25);
  EXPECT_EQ(in.ReadVarU64(), 300u);
  EXPECT_EQ(in.ReadVarI64(), -300);
  EXPECT_EQ(in.ReadString(), "hello");
  EXPECT_TRUE(in.AtEnd());
}

std::string Bytes(std::initializer_list<int> bytes) {
  std::string s;
  for (int b : bytes) s.push_back(static_cast<char>(b));
  return s;
}

TEST(DataIoTest, VarintBoundaries) {
  // LEB128: seven payload bits per byte, low group first, high bit set on
  // every byte but the last.
  const std::vector<std::pair<uint64_t, std::string>> cases = {
      {0, Bytes({0x00})},
      {1, Bytes({0x01})},
      {127, Bytes({0x7f})},
      {128, Bytes({0x80, 0x01})},
      {16383, Bytes({0xff, 0x7f})},
      {16384, Bytes({0x80, 0x80, 0x01})},
      {1ull << 35, Bytes({0x80, 0x80, 0x80, 0x80, 0x80, 0x01})},
      {1ull << 63,
       Bytes({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})},
      {~0ull,
       Bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})},
  };
  for (const auto& [v, bytes] : cases) {
    DataOutput out;
    out.WriteVarU64(v);
    EXPECT_EQ(out.buffer(), bytes) << v;
    DataInput in(bytes);
    EXPECT_EQ(in.ReadVarU64(), v);
    EXPECT_TRUE(in.AtEnd()) << v;
  }
}

TEST(DataIoTest, FixedWidthLiteralBytesAreBigEndian) {
  DataOutput out;
  out.WriteU32(0x01020304u);
  out.WriteU64(0x0102030405060708ull);
  out.WriteDouble(-2.25);  // sign 1, exponent 0x400, fraction 1/8
  out.WriteI32(-2);
  EXPECT_EQ(out.buffer(),
            Bytes({0x01, 0x02, 0x03, 0x04,                          //
                   0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  //
                   0xc0, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
                   0xff, 0xff, 0xff, 0xfe}));
  DataInput in(out.buffer());
  EXPECT_EQ(in.ReadU32(), 0x01020304u);
  EXPECT_EQ(in.ReadU64(), 0x0102030405060708ull);
  EXPECT_EQ(in.ReadDouble(), -2.25);
  EXPECT_EQ(in.ReadI32(), -2);
  EXPECT_TRUE(in.AtEnd());
}

/// Encodes `write` into a buffer, drops its last byte, and runs `read`.
template <typename Write, typename Read>
void ReadTruncatedByOne(Write write, Read read) {
  DataOutput out;
  write(out);
  std::string bytes = out.Take();
  bytes.pop_back();
  DataInput in(bytes);
  read(in);
}

TEST(DataIoDeathTest, TruncatedPrimitivesAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(ReadTruncatedByOne([](DataOutput& o) { o.WriteU32(7); },
                                  [](DataInput& i) { i.ReadU32(); }),
               "DataInput overrun");
  EXPECT_DEATH(ReadTruncatedByOne([](DataOutput& o) { o.WriteU64(7); },
                                  [](DataInput& i) { i.ReadU64(); }),
               "DataInput overrun");
  EXPECT_DEATH(ReadTruncatedByOne([](DataOutput& o) { o.WriteDouble(0.5); },
                                  [](DataInput& i) { i.ReadDouble(); }),
               "DataInput overrun");
  EXPECT_DEATH(ReadTruncatedByOne([](DataOutput& o) { o.WriteVarU64(16384); },
                                  [](DataInput& i) { i.ReadVarU64(); }),
               "DataInput overrun");
}

// --- Array primitives: the same bytes as the per-element calls. ---

/// Reference encodings: one WriteVarU64 / WriteDouble per element.
template <typename Int>
void PerElementVarints(DataOutput& out, const std::vector<Int>& v) {
  for (Int x : v) out.WriteVarU64(static_cast<uint64_t>(x));
}
void PerElementDoubles(DataOutput& out, const std::vector<double>& v) {
  for (double x : v) out.WriteDouble(x);
}

const std::vector<int32_t>& VarintPins() {
  static const std::vector<int32_t> pins = {
      0, 127, 128, 16383, 16384, std::numeric_limits<int32_t>::max(),
      -1, std::numeric_limits<int32_t>::min(), 1, 300};
  return pins;
}

const std::vector<double>& DoublePins() {
  static const std::vector<double> pins = {
      std::numeric_limits<double>::quiet_NaN(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min() * 7,
      std::numeric_limits<double>::infinity(),
      -2.25,
      1e300};
  return pins;
}

TEST(DataIoTest, VarintArrayBytesMatchPerElementWrites) {
  DataOutput array;
  array.WriteVarU64Array(VarintPins().data(), VarintPins().size());
  DataOutput loop;
  PerElementVarints(loop, VarintPins());
  EXPECT_EQ(array.buffer(), loop.buffer());

  // A negative int32 widens to 64 bits first: ten bytes on the wire.
  const int32_t minus_one = -1;
  DataOutput neg;
  neg.WriteVarU64Array(&minus_one, 1);
  EXPECT_EQ(neg.buffer(), Bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                 0xff, 0xff, 0x01}));

  const std::vector<uint64_t> wide = {0, 1ull << 35, 1ull << 63, ~0ull};
  DataOutput wide_array;
  wide_array.WriteVarU64Array(wide.data(), wide.size());
  DataOutput wide_loop;
  PerElementVarints(wide_loop, wide);
  EXPECT_EQ(wide_array.buffer(), wide_loop.buffer());

  // Empty arrays write nothing; an array appends after existing content.
  DataOutput appended;
  appended.WriteString("head");
  appended.WriteVarU64Array(VarintPins().data(), 0);
  EXPECT_EQ(appended.buffer(), Bytes({0x04, 'h', 'e', 'a', 'd'}));
  appended.WriteVarU64Array(VarintPins().data(), VarintPins().size());
  appended.WriteByte(0x5a);
  DataOutput expected;
  expected.WriteString("head");
  PerElementVarints(expected, VarintPins());
  expected.WriteByte(0x5a);
  EXPECT_EQ(appended.buffer(), expected.buffer());
}

TEST(DataIoTest, DoubleArrayBytesMatchPerElementWrites) {
  DataOutput array;
  array.WriteDoubleArray(DoublePins().data(), DoublePins().size());
  DataOutput loop;
  PerElementDoubles(loop, DoublePins());
  EXPECT_EQ(array.buffer(), loop.buffer());
  // -0.0 keeps its sign bit, big-endian.
  EXPECT_EQ(array.buffer().substr(8, 8),
            Bytes({0x80, 0, 0, 0, 0, 0, 0, 0}));

  DataOutput appended;
  appended.WriteU32(7);
  appended.WriteDoubleArray(DoublePins().data(), 0);
  EXPECT_EQ(appended.size(), 4u);
  appended.WriteDoubleArray(DoublePins().data(), DoublePins().size());
  DataOutput expected;
  expected.WriteU32(7);
  PerElementDoubles(expected, DoublePins());
  EXPECT_EQ(appended.buffer(), expected.buffer());
}

/// Reads the pins back from `bytes` followed by `pad` trailing bytes: with
/// a pad of kMaxVarintBytes or more every varint takes the unchecked fast
/// path; with none the last ones fall back to ReadVarU64.
void ExpectPinsReadBack(size_t pad) {
  DataOutput out;
  PerElementVarints(out, VarintPins());
  PerElementDoubles(out, DoublePins());
  for (size_t i = 0; i < pad; ++i) out.WriteByte(0x80);
  DataInput in(out.buffer());
  std::vector<int32_t> ints(VarintPins().size());
  in.ReadVarU64Array(ints.data(), ints.size());
  EXPECT_EQ(ints, VarintPins()) << "pad " << pad;
  std::vector<double> doubles(DoublePins().size());
  in.ReadDoubleArray(doubles.data(), doubles.size());
  EXPECT_TRUE(std::isnan(doubles[0]));
  EXPECT_TRUE(std::signbit(doubles[1]));
  DataOutput again;
  again.WriteDoubleArray(doubles.data(), doubles.size());
  DataOutput want;
  PerElementDoubles(want, DoublePins());
  EXPECT_EQ(again.buffer(), want.buffer()) << "pad " << pad;
  EXPECT_EQ(in.remaining(), pad);
}

TEST(DataIoTest, ArrayReadersTakeFastPathAndTailFallback) {
  ExpectPinsReadBack(kMaxVarintBytes + 3);  // fast path throughout
  ExpectPinsReadBack(0);                    // doubles end the buffer

  // Varints alone, ending the buffer: the last ones sit inside the final
  // ten bytes and go through the fallback.
  DataOutput out;
  PerElementVarints(out, VarintPins());
  DataInput in(out.buffer());
  std::vector<int32_t> ints(VarintPins().size());
  in.ReadVarU64Array(ints.data(), ints.size());
  EXPECT_EQ(ints, VarintPins());
  EXPECT_TRUE(in.AtEnd());

  const std::vector<uint64_t> wide = {~0ull, 1ull << 63, 5};
  DataOutput wide_out;
  PerElementVarints(wide_out, wide);
  DataInput wide_in(wide_out.buffer());
  std::vector<uint64_t> wide_back(wide.size());
  wide_in.ReadVarU64Array(wide_back.data(), wide_back.size());
  EXPECT_EQ(wide_back, wide);
  EXPECT_TRUE(wide_in.AtEnd());
}

TEST(DataIoDeathTest, TruncatedArraysAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(ReadTruncatedByOne(
                   [](DataOutput& o) {
                     o.WriteVarU64Array(VarintPins().data(),
                                        VarintPins().size());
                   },
                   [](DataInput& i) {
                     std::vector<int32_t> v(VarintPins().size());
                     i.ReadVarU64Array(v.data(), v.size());
                   }),
               "DataInput overrun");
  EXPECT_DEATH(ReadTruncatedByOne(
                   [](DataOutput& o) {
                     o.WriteDoubleArray(DoublePins().data(),
                                        DoublePins().size());
                   },
                   [](DataInput& i) {
                     std::vector<double> v(DoublePins().size());
                     i.ReadDoubleArray(v.data(), v.size());
                   }),
               "DataInput overrun");
  // An eleven-byte varint is rejected on the fast path too.
  EXPECT_DEATH(
      {
        std::string bytes(11, static_cast<char>(0x80));
        bytes += std::string(kMaxVarintBytes, '\0');
        DataInput in(bytes);
        uint64_t v = 0;
        in.ReadVarU64Array(&v, 1);
      },
      "varint too long");
}

/// CSC block with two-byte row indices, an empty column and special
/// values.
workloads::CscBlockWritable SampleCsc() {
  std::vector<std::tuple<int32_t, int32_t, double>> triplets;
  for (int32_t c = 0; c < 40; ++c) {
    if (c == 7) continue;
    for (int32_t r = c % 3; r < 300; r += 17 + c % 5) {
      triplets.emplace_back(r, c, r * 0.5 - c);
    }
  }
  triplets.emplace_back(299, 40, -0.0);
  triplets.emplace_back(0, 41, std::numeric_limits<double>::denorm_min());
  return workloads::CscBlockWritable::FromTriplets(300, 42, triplets);
}

TEST(WritableTest, ArrayWritablesKeepPerElementWireBytes) {
  const workloads::CscBlockWritable csc = SampleCsc();
  DataOutput csc_ref;
  csc_ref.WriteVarU64(static_cast<uint64_t>(csc.rows()));
  csc_ref.WriteVarU64(static_cast<uint64_t>(csc.cols()));
  csc_ref.WriteVarU64(csc.values().size());
  PerElementVarints(csc_ref, csc.col_ptr());
  PerElementVarints(csc_ref, csc.row_idx());
  PerElementDoubles(csc_ref, csc.values());
  EXPECT_EQ(SerializeToString(csc), csc_ref.buffer());
  workloads::CscBlockWritable csc_back;
  DeserializeFromString(csc_ref.buffer(), &csc_back);
  EXPECT_EQ(SerializeToString(csc_back), csc_ref.buffer());
  EXPECT_EQ(csc_back.col_ptr(), csc.col_ptr());
  EXPECT_EQ(csc_back.row_idx(), csc.row_idx());

  const DoubleArrayWritable array(DoublePins());
  DataOutput array_ref;
  array_ref.WriteVarU64(DoublePins().size());
  PerElementDoubles(array_ref, DoublePins());
  EXPECT_EQ(SerializeToString(array), array_ref.buffer());
  DoubleArrayWritable array_back;
  DeserializeFromString(array_ref.buffer(), &array_back);
  EXPECT_EQ(SerializeToString(array_back), array_ref.buffer());

  auto dense = sysml::MatrixBlockWritable::Dense(3, 5);
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 5; ++c) dense.Set(r, c, r * 10.0 - c / 4.0);
  }
  DataOutput dense_ref;
  dense_ref.WriteVarU64(3);
  dense_ref.WriteVarU64(5);
  dense_ref.WriteBool(true);
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 5; ++c) dense_ref.WriteDouble(dense.Get(r, c));
  }
  EXPECT_EQ(SerializeToString(dense), dense_ref.buffer());
  sysml::MatrixBlockWritable dense_back;
  DeserializeFromString(dense_ref.buffer(), &dense_back);
  EXPECT_EQ(SerializeToString(dense_back), dense_ref.buffer());

  // The interleaved COO format is untouched and still round-trips.
  auto sparse = sysml::MatrixBlockWritable::Sparse(4, 4);
  sparse.Append(1, 2, 3.5);
  sparse.Append(3, 0, -1.0);
  const std::string sparse_bytes = SerializeToString(sparse);
  sysml::MatrixBlockWritable sparse_back;
  DeserializeFromString(sparse_bytes, &sparse_back);
  EXPECT_EQ(SerializeToString(sparse_back), sparse_bytes);
}

/// A huge length prefix followed by a few real bytes: the reader must
/// abort on the length check, before it sizes a container from it.
template <typename W>
void ReadWithHeader(const std::string& header) {
  std::string bytes = header + std::string(64, '\0');
  W w;
  DeserializeFromString(bytes, &w);
}

TEST(WritableDeathTest, HugeLengthPrefixAbortsBeforeAllocating) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const uint64_t huge = uint64_t{1} << 40;
  auto header = [](std::initializer_list<uint64_t> varints) {
    DataOutput out;
    for (uint64_t v : varints) out.WriteVarU64(v);
    return out.Take();
  };
  EXPECT_DEATH(ReadWithHeader<DoubleArrayWritable>(header({huge})),
               "DataInput overrun");
  // rows, cols, nnz: a huge column count, then a huge nnz.
  EXPECT_DEATH(ReadWithHeader<workloads::CscBlockWritable>(
                   header({4, huge, 1})),
               "DataInput overrun");
  EXPECT_DEATH(ReadWithHeader<workloads::CscBlockWritable>(
                   header({4, 4, huge})),
               "DataInput overrun");
  // rows, cols, dense flag: 2^20 x 2^20 doubles.
  EXPECT_DEATH(ReadWithHeader<sysml::MatrixBlockWritable>(
                   header({1 << 20, 1 << 20, 1})),
               "DataInput overrun");
  // rows, cols, sparse flag, nnz.
  EXPECT_DEATH(ReadWithHeader<sysml::MatrixBlockWritable>(
                   header({4, 4, 0, huge})),
               "DataInput overrun");
}

TEST(WritableTest, IntOrderMatchesByteOrder) {
  // The sign-flipped big-endian encoding must sort like the integers.
  BytesComparator cmp;
  for (int32_t a : {-100, -1, 0, 1, 99, 1 << 30, -(1 << 30)}) {
    for (int32_t b : {-100, -1, 0, 1, 99, 1 << 30, -(1 << 30)}) {
      IntWritable wa(a);
      IntWritable wb(b);
      int byte_cmp = cmp.Compare(SerializeToString(wa), SerializeToString(wb));
      int num_cmp = a < b ? -1 : (a > b ? 1 : 0);
      EXPECT_EQ(byte_cmp, num_cmp) << a << " vs " << b;
    }
  }
}

TEST(WritableTest, RoundTripBasicTypes) {
  Text t("hello world");
  auto t2 = t.Clone();
  EXPECT_EQ(t2->ToString(), "hello world");
  EXPECT_TRUE(t.Equals(*t2));

  DoubleArrayWritable arr({1.0, -2.5, 3.75});
  auto arr2 = std::static_pointer_cast<DoubleArrayWritable>(arr.Clone());
  EXPECT_EQ(arr2->Get(), arr.Get());

  PairIntWritable p(3, -4);
  auto p2 = std::static_pointer_cast<PairIntWritable>(p.Clone());
  EXPECT_EQ(p2->Row(), 3);
  EXPECT_EQ(p2->Col(), -4);
}

TEST(WritableTest, PairOrdering) {
  PairIntWritable a(1, 2);
  PairIntWritable b(1, 3);
  PairIntWritable c(2, 0);
  EXPECT_LT(a.CompareTo(b), 0);
  EXPECT_LT(b.CompareTo(c), 0);
  EXPECT_EQ(a.CompareTo(a), 0);
  // Byte order agrees with CompareTo.
  BytesComparator cmp;
  EXPECT_LT(cmp.Compare(SerializeToString(a), SerializeToString(b)), 0);
  EXPECT_LT(cmp.Compare(SerializeToString(b), SerializeToString(c)), 0);
}

TEST(RegistryTest, CreatesRegisteredTypes) {
  auto& reg = WritableRegistry::Instance();
  for (const char* name :
       {"IntWritable", "LongWritable", "Text", "BytesWritable",
        "DoubleWritable", "NullWritable", "DoubleArrayWritable",
        "PairIntWritable", "GenericWritable"}) {
    ASSERT_TRUE(reg.Contains(name)) << name;
    auto w = reg.Create(name);
    EXPECT_STREQ(w->TypeName(), name);
  }
}

TEST(GenericWritableTest, WrapsAndRestoresDynamicType) {
  GenericWritable g(std::make_shared<Text>("abc"));
  std::string bytes = SerializeToString(g);
  GenericWritable g2;
  DeserializeFromString(bytes, &g2);
  auto* inner = dynamic_cast<Text*>(g2.Get().get());
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->Get(), "abc");
}

TEST(DedupTest, FullModeDeduplicatesRepeats) {
  auto shared = std::make_shared<Text>("payload");
  DedupOutputStream out(DedupMode::kFull);
  out.WriteObject(shared);
  out.WriteObject(std::make_shared<Text>("other"));
  out.WriteObject(shared);
  out.WriteObject(shared);
  EXPECT_EQ(out.objects_written(), 4u);
  EXPECT_EQ(out.objects_deduped(), 2u);
  EXPECT_GT(out.bytes_saved(), 0u);

  DedupInputStream in(out.TakeBuffer());
  auto a = in.ReadObject();
  auto b = in.ReadObject();
  auto c = in.ReadObject();
  auto d = in.ReadObject();
  EXPECT_TRUE(in.AtEnd());
  // Repeats come back as aliases of one copy (paper §3.2.2.3).
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(c.get(), d.get());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->ToString(), "payload");
  EXPECT_EQ(b->ToString(), "other");
}

TEST(DedupTest, OffModeNeverDeduplicates) {
  auto shared = std::make_shared<Text>("x");
  DedupOutputStream out(DedupMode::kOff);
  out.WriteObject(shared);
  out.WriteObject(shared);
  EXPECT_EQ(out.objects_deduped(), 0u);
  DedupInputStream in(out.TakeBuffer());
  auto a = in.ReadObject();
  auto b = in.ReadObject();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(DedupTest, ConsecutiveModeSeesOnlyAPairWindow) {
  auto shared = std::make_shared<Text>("x");
  DedupOutputStream out(DedupMode::kConsecutive);
  out.WriteObject(shared);
  out.WriteObject(shared);  // deduped: within the look-back window
  // Push five distinct objects through to evict `shared` from the window.
  for (int i = 0; i < 5; ++i) {
    out.WriteObject(std::make_shared<Text>("filler" + std::to_string(i)));
  }
  out.WriteObject(shared);  // NOT deduped: outside the window
  EXPECT_EQ(out.objects_deduped(), 1u);

  DedupInputStream in(out.TakeBuffer());
  auto a = in.ReadObject();
  auto b = in.ReadObject();
  for (int i = 0; i < 5; ++i) in.ReadObject();
  auto c = in.ReadObject();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->ToString(), "x");
}

TEST(DedupTest, ConsecutiveModeCatchesBroadcastPairIdiom) {
  // The §6.3 idiom: a loop emits (fresh key, same value) pairs. On the
  // wire that is k0,v,k1,v,... — the value repeats two objects apart and
  // must still be de-duplicated.
  auto value = std::make_shared<Text>(std::string(256, 'v'));
  DedupOutputStream out(DedupMode::kConsecutive);
  for (int i = 0; i < 8; ++i) {
    out.WriteObject(std::make_shared<IntWritable>(i));
    out.WriteObject(value);
  }
  EXPECT_EQ(out.objects_deduped(), 7u);
}

TEST(DedupTest, ControlVarintsInterleave) {
  DedupOutputStream out(DedupMode::kFull);
  out.WriteControl(7);
  out.WriteObject(std::make_shared<IntWritable>(1));
  out.WriteControl(9);
  out.WriteObject(std::make_shared<IntWritable>(2));
  DedupInputStream in(out.TakeBuffer());
  EXPECT_EQ(in.ReadControl(), 7u);
  EXPECT_EQ(static_cast<IntWritable&>(*in.ReadObject()).Get(), 1);
  EXPECT_EQ(in.ReadControl(), 9u);
  EXPECT_EQ(static_cast<IntWritable&>(*in.ReadObject()).Get(), 2);
  EXPECT_TRUE(in.AtEnd());
}

TEST(DedupTest, LiteralWireBytes) {
  auto one = std::make_shared<IntWritable>(1);
  DedupOutputStream out(DedupMode::kFull);
  out.WriteObject(one);
  out.WriteObject(std::make_shared<IntWritable>(2));
  out.WriteObject(one);
  static constexpr char kExpected[] =
      "\x02\x0bIntWritable\x80\x00\x00\x01"  // kNewType, name, fields
      "\x00\x00\x80\x00\x00\x02"              // kNew, type id 0, fields
      "\x01\x00";                                // kRef to object 0
  EXPECT_EQ(out.buffer(), std::string(kExpected, sizeof(kExpected) - 1));
  EXPECT_EQ(out.bytes_saved(), 4u);
}

/// Reference encoder for the kFull wire format, independent of the
/// stream's identity table: what DedupOutputStream must produce.
class ReferenceFullEncoder {
 public:
  void Write(const WritablePtr& obj) {
    auto seen = seen_.find(obj.get());
    if (seen != seen_.end()) {
      out_.WriteByte(1);  // kRef
      out_.WriteVarU64(seen->second);
      return;
    }
    auto type = types_.find(obj->TypeName());
    if (type == types_.end()) {
      const uint32_t id = static_cast<uint32_t>(types_.size());
      types_.emplace(obj->TypeName(), id);
      out_.WriteByte(2);  // kNewType
      out_.WriteString(obj->TypeName());
    } else {
      out_.WriteByte(0);  // kNew
      out_.WriteVarU64(type->second);
    }
    obj->Write(out_);
    seen_.emplace(obj.get(), seen_.size());
  }
  const std::string& buffer() const { return out_.buffer(); }

 private:
  DataOutput out_;
  std::map<const Writable*, uint64_t> seen_;
  std::map<std::string, uint32_t> types_;
};

TEST(DedupTest, FullModeWireBytesStableAcrossTableGrowth) {
  // 6000 writes: fresh Text and LongWritable objects interleaved with
  // repeats of objects written long before, so back-references are
  // resolved across many growths of the identity table.
  std::vector<WritablePtr> fresh;
  std::vector<WritablePtr> sequence;
  DedupOutputStream out(DedupMode::kFull);
  ReferenceFullEncoder reference;
  uint64_t repeats = 0;
  for (size_t i = 0; i < 6000; ++i) {
    WritablePtr obj;
    if (i % 3 == 2) {
      obj = fresh[(i * 7919) % fresh.size()];
      ++repeats;
    } else {
      obj = i % 2 == 0 ? WritablePtr(std::make_shared<Text>(
                             "t" + std::to_string(i)))
                       : WritablePtr(std::make_shared<LongWritable>(i));
      fresh.push_back(obj);
    }
    sequence.push_back(obj);
    out.WriteObject(obj);
    reference.Write(obj);
  }
  EXPECT_EQ(out.objects_written(), 6000u);
  EXPECT_EQ(out.objects_deduped(), repeats);
  ASSERT_EQ(out.buffer(), reference.buffer());

  // Both readers agree with the sender after the growth: the object graph
  // decodes isomorphically (a repeat is an alias of the copy it names),
  // and the span reader sees exactly two types.
  DedupInputStream objects{std::string_view(out.buffer())};
  DedupInputStream spans{std::string_view(out.buffer())};
  std::map<const Writable*, const Writable*> decoded_of;
  std::set<const Writable*> decoded_objects;
  for (const WritablePtr& sent : sequence) {
    WritablePtr decoded = objects.ReadObject();
    std::string_view bytes;
    uint32_t type_id = 0;
    ASSERT_TRUE(spans.ReadObjectBytes(&bytes, &type_id));
    EXPECT_LT(type_id, 2u);
    EXPECT_EQ(spans.TypeName(type_id), sent->TypeName());
    EXPECT_EQ(std::string(bytes), SerializeToString(*sent));
    EXPECT_EQ(SerializeToString(*decoded), bytes);
    auto [it, first] = decoded_of.emplace(sent.get(), decoded.get());
    EXPECT_EQ(it->second, decoded.get());
    // A first sighting decodes to a new object, never an alias.
    EXPECT_EQ(decoded_objects.insert(decoded.get()).second, first);
  }
  EXPECT_TRUE(objects.AtEnd());
  EXPECT_TRUE(spans.AtEnd());
}

TEST(DedupTest, ObjectBytesMatchReserializedObjectsForEveryType) {
  for (const std::string& name : WritableRegistry::Instance().Names()) {
    WritablePtr obj =
        name == GenericWritable::kTypeName
            ? std::make_shared<GenericWritable>(std::make_shared<Text>("x"))
            : WritableRegistry::Instance().Create(name);
    DedupOutputStream out(DedupMode::kFull);
    out.WriteObject(obj);
    out.WriteObject(obj);  // back-reference
    const std::string wire = out.TakeBuffer();

    DedupInputStream objects{std::string_view(wire)};
    DedupInputStream spans{std::string_view(wire)};
    for (int i = 0; i < 2; ++i) {
      std::string_view bytes;
      uint32_t type_id = 99;
      ASSERT_TRUE(spans.ReadObjectBytes(&bytes, &type_id)) << name;
      EXPECT_EQ(spans.TypeName(type_id), name);
      EXPECT_EQ(std::string(bytes), SerializeToString(*objects.ReadObject()))
          << name;
    }
    EXPECT_TRUE(spans.AtEnd()) << name;
  }
}

TEST(DedupTest, ObjectBytesFollowMixedTypeBackReferences) {
  auto text = std::make_shared<Text>("shared text");
  auto pair = std::make_shared<PairIntWritable>(3, -4);
  auto array = std::make_shared<DoubleArrayWritable>(
      std::vector<double>{1.5, -2.0, 3.25});
  auto generic = std::make_shared<GenericWritable>(
      std::make_shared<LongWritable>(77));
  DedupOutputStream out(DedupMode::kFull);
  std::vector<WritablePtr> sent = {
      text, pair, std::make_shared<IntWritable>(5), array, text,
      generic, pair, std::make_shared<Text>("fresh"), array, generic,
      text, std::make_shared<IntWritable>(6)};
  for (int i = 0; i < 4; ++i) {
    out.WriteControl(static_cast<uint64_t>(i));
    for (const WritablePtr& w : sent) out.WriteObject(w);
  }
  EXPECT_GT(out.objects_deduped(), 0u);
  const std::string wire = out.TakeBuffer();

  DedupInputStream objects{std::string_view(wire)};
  DedupInputStream spans{std::string_view(wire)};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(objects.ReadControl(), static_cast<uint64_t>(i));
    EXPECT_EQ(spans.ReadControl(), static_cast<uint64_t>(i));
    for (const WritablePtr& w : sent) {
      std::string_view bytes;
      uint32_t type_id = 0;
      ASSERT_TRUE(spans.ReadObjectBytes(&bytes, &type_id));
      WritablePtr decoded = objects.ReadObject();
      EXPECT_EQ(std::string(bytes), SerializeToString(*decoded));
      EXPECT_EQ(std::string(bytes), SerializeToString(*w));
      EXPECT_EQ(spans.TypeName(type_id), w->TypeName());
      // A span points into the frame itself: no copy was made.
      EXPECT_GE(bytes.data(), wire.data());
      EXPECT_LE(bytes.data() + bytes.size(), wire.data() + wire.size());
    }
  }
  EXPECT_TRUE(spans.AtEnd());
  std::string_view bytes;
  uint32_t type_id = 0;
  EXPECT_FALSE(spans.ReadObjectBytes(&bytes, &type_id));
}

TEST(DedupTest, WriteSerializedMatchesWriteObjectForFreshObjects) {
  // Fresh keys and values go through WriteSerialized; three shared objects
  // go through WriteObject and repeat both two writes later (inside the
  // kConsecutive window) and thirty writes later (outside it), so the
  // serialized writes must take window slots and stream indices exactly
  // as WriteObject would.
  for (DedupMode mode :
       {DedupMode::kFull, DedupMode::kConsecutive, DedupMode::kOff}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const std::vector<WritablePtr> shared = {
        std::make_shared<Text>("broadcast"), std::make_shared<IntWritable>(7),
        std::make_shared<LongWritable>(9)};
    DedupOutputStream by_object(mode);
    DedupOutputStream by_bytes(mode);
    std::vector<WritablePtr> sent;
    auto write = [&](const WritablePtr& obj, bool fresh) {
      by_object.WriteObject(obj);
      if (fresh) {
        by_bytes.WriteSerialized(obj->TypeName(), SerializeToString(*obj));
      } else {
        by_bytes.WriteObject(obj);
      }
      sent.push_back(obj);
    };
    WritablePtr value;
    for (int i = 0; i < 400; ++i) {
      by_object.WriteControl(static_cast<uint64_t>(i % 7));
      by_bytes.WriteControl(static_cast<uint64_t>(i % 7));
      write(std::make_shared<Text>("k" + std::to_string(i)), true);
      if (i % 5 == 0) {
        value = shared[static_cast<size_t>(i / 5) % shared.size()];
        write(value, false);
      } else if (i % 5 == 1) {
        write(value, false);  // the previous pair's value again
      } else {
        write(std::make_shared<LongWritable>(i), true);
      }
    }
    EXPECT_EQ(by_bytes.objects_written(), by_object.objects_written());
    EXPECT_EQ(by_bytes.objects_deduped(), by_object.objects_deduped());
    if (mode != DedupMode::kOff) EXPECT_GT(by_bytes.objects_deduped(), 0u);
    ASSERT_EQ(by_bytes.buffer(), by_object.buffer());

    // The stream decodes back to the sent objects, as objects and as spans,
    // and a kFull repeat is an alias of its first copy.
    DedupInputStream objects{std::string_view(by_bytes.buffer())};
    DedupInputStream spans{std::string_view(by_bytes.buffer())};
    std::map<const Writable*, const Writable*> decoded_of;
    for (size_t i = 0; i < sent.size(); ++i) {
      if (i % 2 == 0) {
        EXPECT_EQ(objects.ReadControl(), (i / 2) % 7);
        EXPECT_EQ(spans.ReadControl(), (i / 2) % 7);
      }
      WritablePtr decoded = objects.ReadObject();
      ASSERT_NE(decoded, nullptr);
      EXPECT_EQ(SerializeToString(*decoded), SerializeToString(*sent[i]));
      std::string_view bytes;
      uint32_t type_id = 0;
      ASSERT_TRUE(spans.ReadObjectBytes(&bytes, &type_id));
      EXPECT_EQ(std::string(bytes), SerializeToString(*sent[i]));
      EXPECT_EQ(spans.TypeName(type_id), sent[i]->TypeName());
      auto [it, first] = decoded_of.emplace(sent[i].get(), decoded.get());
      if (!first && mode == DedupMode::kFull) {
        EXPECT_EQ(it->second, decoded.get());
      }
    }
    EXPECT_TRUE(objects.AtEnd());
    EXPECT_TRUE(spans.AtEnd());
  }
}

TEST(ComparatorTest, RegistryAndDeserializing) {
  auto& reg = ComparatorRegistry::Instance();
  ASSERT_TRUE(reg.Contains(BytesComparator::kName));
  auto cmp = reg.Create(BytesComparator::kName);
  EXPECT_LT(cmp->Compare("a", "b"), 0);
  EXPECT_EQ(cmp->Compare("a", "a"), 0);

  DeserializingComparator dcmp("IntWritable");
  IntWritable a(-5);
  IntWritable b(3);
  EXPECT_LT(dcmp.Compare(SerializeToString(a), SerializeToString(b)), 0);
}

}  // namespace
}  // namespace m3r::serialize

namespace m3r::serialize {
namespace {

/// Round-trip property over EVERY registered Writable type in the binary:
/// default instance -> bytes -> fresh instance -> identical bytes.
TEST(RegistryPropertyTest, AllRegisteredTypesRoundTripDefaults) {
  auto names = WritableRegistry::Instance().Names();
  ASSERT_GT(names.size(), 10u);
  for (const std::string& name : names) {
    if (name == "GenericWritable") continue;  // needs a payload to write
    auto original = WritableRegistry::Instance().Create(name);
    std::string bytes = SerializeToString(*original);
    auto restored = WritableRegistry::Instance().Create(name);
    DeserializeFromString(bytes, restored.get());
    EXPECT_EQ(SerializeToString(*restored), bytes) << name;
    EXPECT_STREQ(restored->TypeName(), name.c_str()) << name;
    // Clone agrees with the serialize round-trip.
    EXPECT_EQ(SerializeToString(*original->Clone()), bytes) << name;
  }
}

}  // namespace
}  // namespace m3r::serialize
