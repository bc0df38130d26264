// Byte identity of the three codecs and the WAL: a fixed corpus of
// requests and replies is encoded with RMIB, CORBX and SOAPX, and the
// FNV-1a digest of each codec's frames must equal a constant recorded from
// the byte-at-a-time encoders these replaced.  A faster copy path may
// change how bytes move, never which bytes move.  Every corpus entry must
// also decode back to an equal value.  Two more digests pin the bytes a
// fixed sequence of Wal::append_* calls writes: log and reply stream
// together, and the snapshot.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "runtime/wal.hpp"
#include "support/bytes.hpp"

namespace rafda::net {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const Bytes& b) {
    // The frame length goes in first, so two corpora that only differ in
    // where one frame ends and the next begins digest differently.
    const std::uint64_t n = b.size();
    for (int k = 0; k < 8; ++k) h = (h ^ ((n >> (8 * k)) & 0xFF)) * 0x100000001B3ull;
    for (std::uint8_t c : b) h = (h ^ c) * 0x100000001B3ull;
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// Strings that put each XML special at the start, middle and end, plus
/// the empty string, non-ASCII bytes and a 4 KB run.
std::vector<std::string> string_corpus() {
    std::vector<std::string> out = {""};
    for (char c : std::string("&<>\"")) {
        out.push_back(std::string(1, c) + "head");
        out.push_back("mid" + std::string(1, c) + "dle");
        out.push_back("tail" + std::string(1, c));
        out.push_back(std::string(3, c));
    }
    out.push_back("&amp;&lt;&gt;&quot; already escaped");
    out.push_back("\x80\xC3\xA9\xFF high bytes \xE2\x82\xAC");
    out.push_back("  spaced\ttext\n");
    std::string big;
    for (int k = 0; k < 4096; ++k) big += static_cast<char>(k % 7 == 0 ? '&' : 'a' + k % 26);
    out.push_back(big);
    return out;
}

std::vector<MarshalledValue> numeric_corpus() {
    using I = std::numeric_limits<std::int32_t>;
    using J = std::numeric_limits<std::int64_t>;
    using D = std::numeric_limits<double>;
    return {
        MarshalledValue::of_int(I::min()),    MarshalledValue::of_int(I::max()),
        MarshalledValue::of_int(0),           MarshalledValue::of_long(J::min()),
        MarshalledValue::of_long(J::max()),   MarshalledValue::of_double(D::infinity()),
        MarshalledValue::of_double(-D::infinity()), MarshalledValue::of_double(D::quiet_NaN()),
        MarshalledValue::of_double(-0.0),     MarshalledValue::of_double(D::denorm_min()),
        MarshalledValue::of_double(D::max()), MarshalledValue::of_double(0.1),
        MarshalledValue::of_bool(false),      MarshalledValue::of_bool(true),
        MarshalledValue::null(),
        MarshalledValue::of_ref(I::min(), std::numeric_limits<std::uint64_t>::max(), "R<&>"),
    };
}

std::vector<CallRequest> request_corpus() {
    std::vector<CallRequest> out;
    // One request per string, which also lands in every name field
    // (SOAPX attributes) and in a reference's class.
    std::uint64_t id = 1;
    for (const std::string& s : string_corpus()) {
        CallRequest req;
        req.request_id = id++;
        req.src_node = 2;
        req.target_oid = 77;
        req.cls = s;
        req.method = s;
        req.desc = s;
        req.args = {MarshalledValue::of_str(s), MarshalledValue::of_ref(1, 5, s)};
        out.push_back(req);
    }
    // CDR strings after 0..7 unaligned bytes: a bool before each string
    // shifts the next value's tag through every offset mod 4.
    CallRequest aligned;
    aligned.request_id = id++;
    aligned.method = "align";
    for (int len = 0; len < 8; ++len) {
        aligned.args.push_back(MarshalledValue::of_bool(len % 2 == 1));
        aligned.args.push_back(MarshalledValue::of_str(std::string(len, 'x')));
    }
    out.push_back(aligned);
    // Integer and floating-point extremes, with and without the
    // reliability extension.
    CallRequest numbers;
    numbers.request_id = std::numeric_limits<std::uint64_t>::max();
    numbers.src_node = std::numeric_limits<std::int32_t>::min();
    numbers.target_oid = std::numeric_limits<std::uint64_t>::max();
    numbers.method = "n";
    numbers.desc = "(IJD)V";
    numbers.args = numeric_corpus();
    out.push_back(numbers);
    numbers.attempt = std::numeric_limits<std::uint32_t>::max();
    numbers.deadline_us = std::numeric_limits<std::uint64_t>::max();
    out.push_back(numbers);
    CallRequest create;
    create.kind = RequestKind::Create;
    create.request_id = id++;
    create.cls = "Account";
    out.push_back(create);
    create.kind = RequestKind::Discover;
    create.attempt = 3;
    out.push_back(create);
    return out;
}

std::vector<CallReply> reply_corpus() {
    std::vector<CallReply> out;
    std::uint64_t id = 100;
    for (const MarshalledValue& v : numeric_corpus()) {
        CallReply reply;
        reply.request_id = id++;
        reply.result = v;
        out.push_back(reply);
    }
    for (const std::string& s : string_corpus()) {
        CallReply ok;
        ok.request_id = id++;
        ok.result = MarshalledValue::of_str(s);
        out.push_back(ok);
        CallReply fault;
        fault.request_id = id++;
        fault.is_fault = true;
        fault.fault_class = s;
        fault.fault_msg = s;
        out.push_back(fault);
    }
    return out;
}

/// Value equality with NaN equal to NaN (a NaN's payload is not part of
/// the SOAPX text form).
bool same_value(const MarshalledValue& a, const MarshalledValue& b) {
    if (a.tag == ValueTag::Double && b.tag == ValueTag::Double &&
        std::isnan(a.d) && std::isnan(b.d)) {
        MarshalledValue x = a, y = b;
        x.d = y.d = 0;
        return x == y;
    }
    return a == b;
}

bool same_request(CallRequest a, CallRequest b) {
    if (a.args.size() != b.args.size()) return false;
    for (std::size_t k = 0; k < a.args.size(); ++k)
        if (!same_value(a.args[k], b.args[k])) return false;
    a.args.clear();
    b.args.clear();
    return a == b;
}

bool same_reply(CallReply a, CallReply b) {
    if (!same_value(a.result, b.result)) return false;
    a.result = b.result = {};
    return a == b;
}

std::uint64_t corpus_digest(const Codec& codec) {
    std::uint64_t h = kFnvBasis;
    for (const CallRequest& req : request_corpus()) {
        const Bytes frame = codec.encode_request(req);
        EXPECT_TRUE(same_request(codec.decode_request(frame), req))
            << codec.protocol() << " request " << req.request_id;
        h = fnv1a(h, frame);
    }
    for (const CallReply& reply : reply_corpus()) {
        const Bytes frame = codec.encode_reply(reply);
        EXPECT_TRUE(same_reply(codec.decode_reply(frame), reply))
            << codec.protocol() << " reply " << reply.request_id;
        h = fnv1a(h, frame);
    }
    return h;
}

TEST(CodecBytes, RmibCorpusDigestIsUnchanged) {
    EXPECT_EQ(corpus_digest(*make_codec("RMI")), 10267305539353788007ull);
}

TEST(CodecBytes, CorbxCorpusDigestIsUnchanged) {
    EXPECT_EQ(corpus_digest(*make_codec("CORBA")), 13986399867514602062ull);
}

TEST(CodecBytes, SoapxCorpusDigestIsUnchanged) {
    EXPECT_EQ(corpus_digest(*make_codec("SOAP")), 4200016113494339842ull);
}

TEST(CodecBytes, RmibBatchEntryDigestIsUnchanged) {
    const auto codec = make_codec("RMI");
    std::uint64_t h = kFnvBasis;
    for (CallRequest req : request_corpus()) {
        req.kind = RequestKind::Invoke;
        req.src_node = 4;
        const BatchContext ctx{4, req.request_id / 2};
        Bytes frame;
        ByteWriter w(frame);
        codec->encode_batch_entry(req, ctx, w);
        EXPECT_TRUE(same_request(codec->decode_batch_entry(frame, ctx), req));
        h = fnv1a(h, frame);
    }
    EXPECT_EQ(h, 2249925522970364551ull);
}

TEST(CodecBytes, WalLogAndSnapshotDigestIsUnchanged) {
    using runtime::Wal;
    using vm::Value;
    Wal wal;
    std::uint64_t t = 1;
    for (const std::string& s : string_corpus()) {
        wal.append_alloc(t++, s);
        wal.append_alloc_array(t++, s, s.size());
        wal.append_field_put(t++, 1, 0, Value::of_str(s));
        wal.append_static_put(t++, s, s, Value::of_double(-0.0));
        wal.append_class_init(t++, s);
        wal.append_singleton(t++, s, 9);
        wal.append_singleton_drop(t++, s);
        wal.append_proxy_import(t++, -1, 17, s, s, 5);
        wal.append_transmute(t++, 4, s, 2, 11);
    }
    wal.append_array_put(t++, 2, 3, Value::of_ref(1));
    wal.append_field_put(t++, 1, 1, Value::of_long(std::numeric_limits<std::int64_t>::min()));
    for (const CallReply& reply : reply_corpus()) wal.append_reply(t, reply.request_id, reply);
    // The replies were the log's last records before they moved to their
    // own stream, so log || replies is the old log, byte for byte.
    Bytes joined = wal.log();
    joined.insert(joined.end(), wal.replies().begin(), wal.replies().end());
    EXPECT_EQ(fnv1a(kFnvBasis, joined), 2172125131776855048ull);

    // A checkpoint no longer carries replies.  This constant was recorded
    // with the WAL that still copied them into checkpoints, from the same
    // two snapshot appends alone.
    wal.begin_snapshot();
    wal.append_alloc(t, "Snap&shot");
    wal.append_relocate(t, 6, "Service__Proxy", 3, 12);
    wal.commit_snapshot();
    EXPECT_EQ(fnv1a(kFnvBasis, wal.snapshot()), 842260617137894040ull);
}

}  // namespace
}  // namespace rafda::net
