// WAL framing and replay (DESIGN.md §20): every record kind round-trips,
// a torn tail — the log truncated at *any* byte offset inside the final
// record — stops replay cleanly at the last complete record, corrupted
// frames are rejected by the CRC rather than silently applied, a
// checksummed record with unread payload bytes is a framing error, a
// committed snapshot truncates the log, and the slicing-by-8 CRC and its
// combine algebra agree with a bit-at-a-time reference.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "runtime/wal.hpp"
#include "support/error.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

/// Flattens every visitor event into one line so whole replays compare as
/// string vectors — a mismatch pinpoints the first diverging record.
struct RecordingVisitor final : WalVisitor {
    std::vector<std::string> events;

    static std::string show(const Value& v) {
        if (v.is_null()) return "null";
        if (v.is_bool()) return v.as_bool() ? "true" : "false";
        if (v.is_int()) return "i" + std::to_string(v.as_int());
        if (v.is_long()) return "j" + std::to_string(v.as_long());
        if (v.is_double()) return "d" + std::to_string(v.as_double());
        if (v.is_str()) return "s" + v.as_str();
        return "r" + std::to_string(v.as_ref());
    }

    void on_alloc(std::uint64_t t, const std::string& cls) override {
        events.push_back("alloc " + std::to_string(t) + " " + cls);
    }
    void on_alloc_array(std::uint64_t t, const std::string& elem,
                        std::uint64_t len) override {
        events.push_back("array " + std::to_string(t) + " " + elem + " " +
                         std::to_string(len));
    }
    void on_field_put(std::uint64_t t, std::uint64_t oid, std::uint64_t slot,
                      const Value& v) override {
        events.push_back("field " + std::to_string(t) + " " + std::to_string(oid) +
                         "." + std::to_string(slot) + "=" + show(v));
    }
    void on_array_put(std::uint64_t t, std::uint64_t oid, std::uint64_t idx,
                      const Value& v) override {
        events.push_back("aput " + std::to_string(t) + " " + std::to_string(oid) +
                         "[" + std::to_string(idx) + "]=" + show(v));
    }
    void on_static_put(std::uint64_t t, const std::string& cls,
                       const std::string& field, const Value& v) override {
        events.push_back("static " + std::to_string(t) + " " + cls + "." + field +
                         "=" + show(v));
    }
    void on_class_init(std::uint64_t t, const std::string& cls) override {
        events.push_back("clinit " + std::to_string(t) + " " + cls);
    }
    void on_singleton(std::uint64_t t, const std::string& cls,
                      std::uint64_t oid) override {
        events.push_back("singleton " + std::to_string(t) + " " + cls + "=" +
                         std::to_string(oid));
    }
    void on_singleton_drop(std::uint64_t t, const std::string& cls) override {
        events.push_back("drop " + std::to_string(t) + " " + cls);
    }
    void on_proxy_import(std::uint64_t t, std::int32_t node, std::uint64_t oid,
                         const std::string& iface, const std::string& proto,
                         std::uint64_t local) override {
        events.push_back("import " + std::to_string(t) + " " + std::to_string(node) +
                         ":" + std::to_string(oid) + " " + iface + "/" + proto +
                         " as " + std::to_string(local));
    }
    void on_reply(std::uint64_t t, std::uint64_t req,
                  const net::CallReply& reply) override {
        std::ostringstream os;
        os << "reply " << t << " " << req << " id=" << reply.request_id
           << " fault=" << reply.is_fault
           << " tag=" << static_cast<int>(reply.result.tag) << " fc="
           << reply.fault_class << " fm=" << reply.fault_msg;
        if (reply.result.tag == net::ValueTag::Ref)
            os << " ref=" << reply.result.ref_node << ":" << reply.result.ref_oid
               << ":" << reply.result.ref_class;
        events.push_back(os.str());
    }
    void on_transmute(std::uint64_t t, std::uint64_t oid, const std::string& cls,
                      std::int32_t node, std::uint64_t remote) override {
        events.push_back("transmute " + std::to_string(t) + " " +
                         std::to_string(oid) + " -> " + cls + "@" +
                         std::to_string(node) + ":" + std::to_string(remote));
    }
    void on_relocate(std::uint64_t t, std::uint64_t oid, const std::string& cls,
                     std::int32_t node, std::uint64_t remote) override {
        events.push_back("relocate " + std::to_string(t) + " " +
                         std::to_string(oid) + " -> " + cls + "@" +
                         std::to_string(node) + ":" + std::to_string(remote));
    }
};

/// One record of every kind, with every Value tag exercised somewhere.
void append_all_kinds(Wal& wal) {
    wal.append_alloc(1, "Service");
    wal.append_alloc_array(2, "I", 4);
    wal.append_field_put(3, 1, 0, Value::of_int(42));
    wal.append_field_put(4, 1, 1, Value::of_long(1LL << 40));
    wal.append_field_put(5, 1, 2, Value::of_double(2.5));
    wal.append_field_put(6, 1, 3, Value::of_str("hello"));
    wal.append_field_put(7, 1, 4, Value::null());
    wal.append_field_put(8, 1, 5, Value::of_bool(true));
    wal.append_array_put(9, 2, 3, Value::of_ref(1));
    wal.append_static_put(10, "Service", "total", Value::of_int(7));
    wal.append_class_init(11, "Service");
    wal.append_singleton(12, "Registry", 9);
    wal.append_singleton_drop(13, "Registry");
    wal.append_proxy_import(14, 2, 17, "IService", "RMI", 5);
    net::CallReply ok;
    ok.request_id = 900;
    ok.result = net::MarshalledValue::of_int(84);
    wal.append_reply(15, 900, ok);
    net::CallReply ref;
    ref.request_id = 901;
    ref.result = net::MarshalledValue::of_ref(1, 33, "Service");
    wal.append_reply(16, 901, ref);
    net::CallReply fault;
    fault.request_id = 902;
    fault.is_fault = true;
    fault.fault_class = "RemoteFault";
    fault.fault_msg = "boom";
    wal.append_reply(17, 902, fault);
    wal.append_transmute(18, 4, "Service__Proxy", 2, 11);
    wal.append_relocate(19, 6, "Service__Proxy", 3, 12);
}

TEST(Wal, EveryRecordKindRoundTrips) {
    Wal wal;
    append_all_kinds(wal);
    EXPECT_EQ(wal.stats().records, 19u);

    RecordingVisitor v;
    Wal::ReplayResult r = Wal::replay(wal.log(), v);
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.records, 19u);
    EXPECT_EQ(r.bytes, wal.log().size());
    ASSERT_EQ(v.events.size(), 19u);
    EXPECT_EQ(v.events[0], "alloc 1 Service");
    EXPECT_EQ(v.events[1], "array 2 I 4");
    EXPECT_EQ(v.events[2], "field 3 1.0=i42");
    EXPECT_EQ(v.events[8], "aput 9 2[3]=r1");
    EXPECT_EQ(v.events[13], "import 14 2:17 IService/RMI as 5");
    EXPECT_EQ(v.events[18], "relocate 19 6 -> Service__Proxy@3:12");

    // The same bytes replay to the same events, bit for bit.
    RecordingVisitor again;
    Wal::replay(wal.log(), again);
    EXPECT_EQ(v.events, again.events);
}

TEST(Wal, TornTailTruncatedAtEveryByteOffsetStopsCleanly) {
    // Satellite: simulate a crash mid-append by truncating the log at
    // *every* byte offset inside the final record.  Replay must apply the
    // first two records whole and nothing — not one event — of the tail.
    Wal wal;
    wal.append_alloc(1, "Service");
    wal.append_field_put(2, 1, 0, Value::of_int(42));
    const std::size_t intact = wal.log().size();
    wal.append_static_put(3, "Service", "total", Value::of_str("tail-record"));
    const Bytes& full = wal.log();
    ASSERT_GT(full.size(), intact);

    RecordingVisitor whole;
    Wal::replay(full, whole);
    ASSERT_EQ(whole.events.size(), 3u);
    const std::vector<std::string> prefix(whole.events.begin(),
                                          whole.events.begin() + 2);

    for (std::size_t cut = intact; cut < full.size(); ++cut) {
        Bytes torn(full.begin(), full.begin() + cut);
        RecordingVisitor v;
        Wal::ReplayResult r = Wal::replay(torn, v);
        EXPECT_EQ(v.events, prefix) << "cut at " << cut;
        EXPECT_EQ(r.records, 2u) << "cut at " << cut;
        EXPECT_EQ(r.bytes, intact) << "cut at " << cut;
        // Zero bytes of the tail record is a record boundary — a crash
        // *before* the append — and replay rightly calls that clean; any
        // partial tail is flagged torn.
        EXPECT_EQ(r.clean, cut == intact) << "cut at " << cut;
    }
}

TEST(Wal, BitFlipAnywhereNeverSurvivesReplay) {
    // CRC fuzz: flip one bit anywhere in the stream and replay.  The
    // damaged stream must yield a strict prefix of the original events —
    // the flip is detected (length, CRC, or payload) and replay stops;
    // it is never silently applied as a different record.
    Wal wal;
    append_all_kinds(wal);
    const Bytes& good = wal.log();
    RecordingVisitor reference;
    Wal::replay(good, reference);

    std::uint64_t lcg = 0x9E3779B97F4A7C15ull;  // deterministic, seedless
    for (int trial = 0; trial < 200; ++trial) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t byte = (lcg >> 16) % good.size();
        const int bit = (lcg >> 8) & 7;
        Bytes bad = good;
        bad[byte] ^= static_cast<std::uint8_t>(1u << bit);

        RecordingVisitor v;
        Wal::ReplayResult r = Wal::replay(bad, v);
        EXPECT_FALSE(r.clean && r.records == reference.events.size())
            << "flip at byte " << byte << " bit " << bit << " went undetected";
        ASSERT_LT(v.events.size(), reference.events.size());
        EXPECT_TRUE(std::equal(v.events.begin(), v.events.end(),
                               reference.events.begin()))
            << "flip at byte " << byte << " bit " << bit
            << " surfaced a corrupted record";
    }
}

TEST(Wal, SnapshotTruncatesLogAndRecoverReplaysBoth) {
    Wal wal;
    wal.append_alloc(1, "Old");
    wal.append_field_put(2, 1, 0, Value::of_int(1));
    EXPECT_EQ(wal.stats().records, 2u);

    // Checkpoint: the snapshot supersedes the log, which empties.
    wal.begin_snapshot();
    wal.append_alloc(5, "Checkpointed");
    wal.append_field_put(5, 1, 0, Value::of_int(2));
    wal.commit_snapshot();
    EXPECT_TRUE(wal.log().empty());
    EXPECT_FALSE(wal.snapshot().empty());
    EXPECT_EQ(wal.stats().snapshots, 1u);
    EXPECT_EQ(wal.stats().records, 2u);  // snapshot appends are not log records

    // Post-checkpoint mutations land in the fresh log ...
    wal.append_field_put(7, 1, 0, Value::of_int(3));
    EXPECT_EQ(wal.stats().records, 3u);

    // ... and recovery replays snapshot first, then the tail.
    RecordingVisitor v;
    Wal::ReplayResult r = wal.recover(v);
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.records, 3u);
    ASSERT_EQ(v.events.size(), 3u);
    EXPECT_EQ(v.events[0], "alloc 5 Checkpointed");
    EXPECT_EQ(v.events[1], "field 5 1.0=i2");
    EXPECT_EQ(v.events[2], "field 7 1.0=i3");
    EXPECT_EQ(wal.stats().recoveries, 1u);
    EXPECT_EQ(wal.stats().replayed, 3u);
}

TEST(Wal, EmptyAndCrcKnownAnswer) {
    Wal wal;
    EXPECT_TRUE(wal.empty());
    wal.append_class_init(1, "C");
    EXPECT_FALSE(wal.empty());

    // CRC-32 IEEE known-answer: "123456789" -> 0xCBF43926.
    const char* kat = "123456789";
    EXPECT_EQ(wal_crc32(reinterpret_cast<const std::uint8_t*>(kat), 9),
              0xCBF43926u);
    EXPECT_EQ(wal_crc32(nullptr, 0), 0u);
}

TEST(Wal, StoredReplyEncodingFramesLikeAFreshOne) {
    // A reply encoded once and appended under several stamps — with the
    // stamp changing between appends, as live records and checkpoints
    // interleave — frames exactly as the field-by-field append does.
    net::CallReply ok;
    ok.request_id = 77;
    ok.result = net::MarshalledValue::of_long(-5);
    net::CallReply ref;
    ref.request_id = 78;
    ref.result = net::MarshalledValue::of_ref(3, 1ull << 40, "Service_O_Int");
    net::CallReply fault;
    fault.request_id = 79;
    fault.is_fault = true;
    fault.fault_class = "RemoteFault";
    fault.fault_msg = std::string(300, 'x');  // body past one slicing step
    EncodedReply ok_enc, ref_enc, fault_enc;
    ok_enc.encode(77, ok);
    ref_enc.encode(78, ref);
    fault_enc.encode(79, fault);

    Wal fresh, stored;
    for (std::uint64_t t : {1ull, 1ull, 300ull, 300ull, 1ull << 35, 2ull}) {
        fresh.append_reply(t, 77, ok);
        fresh.append_reply(t, 78, ref);
        fresh.append_reply(t, 79, fault);
        stored.append_reply(t, ok_enc);
        stored.append_reply(t, ref_enc);
        stored.append_reply(t, fault_enc);
    }
    EXPECT_EQ(stored.log(), fresh.log());
    EXPECT_EQ(stored.stats().records, fresh.stats().records);
    // Both sides share the stamp-prefix memo, so the stamps are checked
    // against the replay too.
    RecordingVisitor v;
    EXPECT_TRUE(Wal::replay(stored.log(), v).clean);
    ASSERT_EQ(v.events.size(), 18u);
    std::size_t i = 0;
    for (std::uint64_t t : {1ull, 1ull, 300ull, 300ull, 1ull << 35, 2ull})
        for (std::uint64_t id : {77u, 78u, 79u})
            EXPECT_EQ(v.events[i++].rfind("reply " + std::to_string(t) + " " +
                                              std::to_string(id) + " ",
                                          0),
                      0u)
                << v.events[i - 1];
}

/// Hand-frames `payload` exactly as the WAL does: [u32 len][u32 crc].
Bytes hand_frame(const Bytes& payload) {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(wal_crc32(payload.data(), payload.size()));
    w.raw(payload);
    return w.take();
}

TEST(Wal, TrailingPayloadBytesUnderAGoodCrcThrow) {
    // ClassInit(t=1, "C") decodes from the first five payload bytes; a
    // sixth byte under a matching CRC cannot be a torn write, so replay
    // reports a framing bug rather than dropping it silently.
    ByteWriter w;
    w.u8(6);  // Kind::ClassInit
    w.varu64(1);
    w.str("C");
    Bytes exact = w.take();
    RecordingVisitor ok;
    Wal::ReplayResult r = Wal::replay(hand_frame(exact), ok);
    EXPECT_TRUE(r.clean);
    ASSERT_EQ(ok.events, std::vector<std::string>{"clinit 1 C"});

    Bytes padded = exact;
    padded.push_back(0xAB);
    RecordingVisitor v;
    EXPECT_THROW(Wal::replay(hand_frame(padded), v), CodecError);
}

/// CRC-32 one bit at a time straight from the reflected polynomial: the
/// oracle the table-driven kernel must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t len) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

/// Deterministic bytes for the CRC sweeps.
Bytes lcg_bytes(std::size_t n, std::uint64_t seed) {
    Bytes out(n);
    for (std::uint8_t& b : out) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<std::uint8_t>(seed >> 56);
    }
    return out;
}

TEST(Wal, CrcMatchesBitwiseReferenceAtEveryLengthAndOffset) {
    // Every length 0..1024 from each of the 8 start offsets an 8-byte step
    // can be misaligned by.  Each input lives in a buffer that ends exactly
    // where it does, so an over-read is a heap overflow under ASan.
    const Bytes master = lcg_bytes(1024 + 8, 0xC0FFEE);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const Bytes buf(master.begin(),
                            master.begin() + static_cast<std::ptrdiff_t>(off + len));
            ASSERT_EQ(wal_crc32(buf.data() + off, len),
                      crc32_bitwise(buf.data() + off, len))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Wal, CrcCombineEqualsWholeBufferCrcOnRandomSplits) {
    std::uint64_t lcg = 0x5EED;
    auto next = [&] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t len = next() % 600;
        const Bytes whole = lcg_bytes(len, next());
        // Trials 0 and 1 pin the empty halves; the rest split anywhere.
        const std::size_t split = trial == 0 ? 0 : trial == 1 ? len : next() % (len + 1);
        const std::uint8_t* b = whole.data() + split;
        const std::size_t len_b = len - split;
        EXPECT_EQ(wal_crc32_combine(wal_crc32(whole.data(), split), wal_crc32(b, len_b),
                                    wal_crc32_shift(len_b)),
                  wal_crc32(whole.data(), len))
            << "length " << len << " split " << split;
    }
    // The zero-length shift is the identity, and an empty prefix adds
    // nothing.
    EXPECT_EQ(wal_crc32_combine(0x12345678u, 0, wal_crc32_shift(0)), 0x12345678u);
    EXPECT_EQ(wal_crc32_combine(0, 0x9ABCDEF0u, wal_crc32_shift(17)), 0x9ABCDEF0u);
}

}  // namespace
}  // namespace rafda::runtime
