#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/rmib.hpp"
#include "net/soapx.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace rafda::net {
namespace {

CallRequest sample_request() {
    CallRequest req;
    req.kind = RequestKind::Invoke;
    req.request_id = 42;
    req.src_node = 3;
    req.target_oid = 1234567890123ULL;
    req.cls = "";
    req.method = "m";
    req.desc = "(JLY_O_Int;)I";
    req.args.push_back(MarshalledValue::of_long(-5));
    req.args.push_back(MarshalledValue::of_ref(1, 99, "Y_O_Int"));
    req.args.push_back(MarshalledValue::of_str("hello <world> & \"friends\""));
    req.args.push_back(MarshalledValue::null());
    req.args.push_back(MarshalledValue::of_bool(true));
    req.args.push_back(MarshalledValue::of_double(2.5));
    req.args.push_back(MarshalledValue::of_int(-7));
    return req;
}

/// The bytes of a hex string; spaces are ignored.
Bytes hex(std::string_view text) {
    Bytes out;
    for (std::size_t k = 0; k < text.size(); ++k) {
        if (text[k] == ' ') continue;
        std::uint8_t b = 0;
        std::from_chars(text.data() + k, text.data() + k + 2, b, 16);
        out.push_back(b);
        ++k;
    }
    return out;
}

class BothCodecs : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<Codec> codec_ = make_codec(GetParam());
};

TEST_P(BothCodecs, RequestRoundTrip) {
    CallRequest req = sample_request();
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
}

TEST_P(BothCodecs, CreateAndDiscoverRoundTrip) {
    CallRequest req;
    req.kind = RequestKind::Create;
    req.request_id = 1;
    req.src_node = 0;
    req.cls = "Account";
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    req.kind = RequestKind::Discover;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
}

TEST_P(BothCodecs, ReplyRoundTrip) {
    CallReply reply;
    reply.request_id = 42;
    reply.result = MarshalledValue::of_ref(2, 17, "C_O_Int");
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, FaultReplyRoundTrip) {
    CallReply reply;
    reply.request_id = 7;
    reply.is_fault = true;
    reply.fault_class = "RemoteFault";
    reply.fault_msg = "link <0->1> lost & gone";
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, EmptyArgsAndStrings) {
    CallRequest req;
    req.kind = RequestKind::Invoke;
    req.method = "f";
    req.desc = "()V";
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    CallReply reply;
    reply.result = MarshalledValue::of_str("");
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, ExtremeNumerics) {
    CallReply reply;
    reply.result = MarshalledValue::of_long(std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
    reply.result = MarshalledValue::of_double(1e-300);
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, ReliabilityExtensionRoundTrips) {
    CallRequest req = sample_request();
    req.attempt = 3;
    req.deadline_us = 123'456'789ULL;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    // Each field alone also carries the extension.
    req.attempt = 0;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    req.attempt = 1;
    req.deadline_us = 0;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
}

TEST_P(BothCodecs, ReliabilityExtensionIsAbsentOnFirstAttempt) {
    // The extension rides on the wire only when a request is a retry or
    // carries a deadline, so fault-free experiments (E5 wire sizes) see
    // exactly the legacy encoding: same size, and for SOAP no attribute
    // text at all.
    CallRequest req = sample_request();
    const Bytes legacy = codec_->encode_request(req);
    const std::string text(legacy.begin(), legacy.end());
    EXPECT_EQ(text.find("attempt"), std::string::npos);
    EXPECT_EQ(text.find("deadline"), std::string::npos);
    req.attempt = 2;
    req.deadline_us = 500;
    EXPECT_GT(codec_->encode_request(req).size(), legacy.size());
}

TEST_P(BothCodecs, NewEncoderKeepsLegacyFramingWithoutExtension) {
    // The other compatibility direction: a request without the extension
    // must leave the *new* encoder in the original framing, so a legacy
    // decoder (which knows nothing of attempt/deadline) would accept it.
    CallRequest req = sample_request();
    ASSERT_EQ(req.attempt, 0u);
    ASSERT_EQ(req.deadline_us, 0u);
    const Bytes wire = codec_->encode_request(req);
    const std::string proto = codec_->protocol();
    if (proto == "RMI") {
        EXPECT_EQ(wire.at(0), 0xA1);  // plain request magic, not 0xA3/0xA4
    } else if (proto == "CORBA") {
        // CRBX header: magic(4) ver(2) type(1) flags(1) — reliable bit off.
        EXPECT_EQ(wire.at(7), 0x00);
    } else {
        const std::string text(wire.begin(), wire.end());
        EXPECT_EQ(text.find("attempt"), std::string::npos);
        EXPECT_EQ(text.find("deadline"), std::string::npos);
    }
}

TEST_P(BothCodecs, BatchingOffUsesPerCallFraming) {
    // With batching off (the default), the RPC path encodes through
    // encode_request_into — identical framing whether the destination
    // buffer is fresh or a reused pooled frame with leftover capacity.
    CallRequest req = sample_request();
    const Bytes fresh = codec_->encode_request(req);
    Bytes pooled_frame;
    pooled_frame.reserve(4096);
    pooled_frame.push_back(0xEE);  // stale content from a previous lease
    ByteWriter w(pooled_frame);
    codec_->encode_request_into(req, w);
    EXPECT_EQ(pooled_frame, fresh);
    EXPECT_EQ(codec_->decode_request(pooled_frame), req);
}

TEST_P(BothCodecs, OnlyRmibSupportsBatchEntries) {
    const bool is_rmi = codec_->protocol() == "RMI";
    EXPECT_EQ(codec_->supports_batch_entries(), is_rmi);
    if (!is_rmi) {
        CallRequest req = sample_request();
        BatchContext ctx{req.src_node, req.request_id};
        ByteWriter w;
        EXPECT_THROW(codec_->encode_batch_entry(req, ctx, w), CodecError);
        EXPECT_THROW(codec_->decode_batch_entry(codec_->encode_request(req), ctx),
                     CodecError);
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, BothCodecs,
                         ::testing::Values("RMI", "SOAP", "CORBA"));

TEST(Codecs, RmibBaseFrameLayoutDecodesWithZeroReliabilityDefaults) {
    // The 0xA1 base layout, written out byte by byte so that neither side
    // of the comparison goes through ByteWriter: no extension words and no
    // trace context, just the request id followed by the source node.  It
    // decodes with attempt/deadline 0.
    const Bytes frame = hex(
        "a1"                        // base request magic
        "00"                        // kind = Invoke
        "2a00000000000000"          // request_id 42, u64 little-endian
        "03000000"                  // src_node 3, i32
        "4d00000000000000"          // target_oid 77
        "00000000"                  // cls "", u32 length only
        "01000000 6d"               // method "m"
        "03000000 282956"           // desc "()V"
        "00000000");                // nargs
    CallRequest req = RmibCodec().decode_request(frame);
    EXPECT_EQ(req.request_id, 42u);
    EXPECT_EQ(req.src_node, 3);
    EXPECT_EQ(req.method, "m");
    EXPECT_EQ(req.attempt, 0u);
    EXPECT_EQ(req.deadline_us, 0u);
    // And the encoder writes exactly this layout back.
    EXPECT_EQ(RmibCodec().encode_request(req), frame);
}

TEST(Codecs, LegacySoapBytesDecodeWithZeroReliabilityDefaults) {
    // A hand-written legacy envelope (no attempt/deadline attributes, and
    // no trace context) against the current decoder: the extension
    // defaults to zero.
    const std::string xml =
        "<Envelope><Body><Request kind=\"invoke\" id=\"9\""
        " src=\"1\" target=\"5\" class=\"\" method=\"m\" desc=\"(I)I\">"
        "<arg type=\"int\">-3</arg></Request></Body></Envelope>";
    CallRequest req = SoapxCodec().decode_request(Bytes(xml.begin(), xml.end()));
    EXPECT_EQ(req.request_id, 9u);
    EXPECT_EQ(req.attempt, 0u);
    EXPECT_EQ(req.deadline_us, 0u);
    ASSERT_EQ(req.args.size(), 1u);
    EXPECT_EQ(req.args[0].i, -3);
}

TEST(Codecs, SoapExtensionAttributesDecode) {
    // And the forward direction as raw text: attributes written by the
    // new encoder carry through a decode of the literal document.
    const std::string xml =
        "<Envelope><Body><Request kind=\"invoke\" id=\"9\""
        " src=\"1\" target=\"5\" class=\"\" method=\"m\" desc=\"()V\""
        " attempt=\"4\" deadline=\"123456\"></Request></Body></Envelope>";
    CallRequest req = SoapxCodec().decode_request(Bytes(xml.begin(), xml.end()));
    EXPECT_EQ(req.attempt, 4u);
    EXPECT_EQ(req.deadline_us, 123456u);
}

// A request envelope with the numeric attributes `attrs` and one int
// argument whose text is `arg`.
Bytes soap_request(const std::string& attrs, const std::string& arg = "-3") {
    const std::string xml = "<Envelope><Body><Request kind=\"invoke\" " + attrs +
                            " class=\"\" method=\"m\" desc=\"(I)I\">"
                            "<arg type=\"int\">" + arg + "</arg></Request></Body></Envelope>";
    return Bytes(xml.begin(), xml.end());
}

TEST(Codecs, SoapRejectsMalformedNumbers) {
    // Every number is one whole token within its field's range, as
    // strictly as the binary codecs read theirs.
    const SoapxCodec soapx;
    const std::string ok = "src=\"1\" target=\"5\"";
    EXPECT_EQ(soapx.decode_request(soap_request("id=\"9\" " + ok)).request_id, 9u);
    for (const char* id : {"id=\"12x\"", "id=\"\"", "id=\" 12\"", "id=\"-1\""})
        EXPECT_THROW(soapx.decode_request(soap_request(std::string(id) + " " + ok)),
                     CodecError)
            << id;
    EXPECT_THROW(soapx.decode_request(soap_request(
                     "id=\"9\" src=\"1\" target=\"-1\"")),
                 CodecError);
    EXPECT_THROW(soapx.decode_request(soap_request(
                     "id=\"9\" src=\"99999999999\" target=\"5\"")),
                 CodecError);
    EXPECT_THROW(
        soapx.decode_request(soap_request("id=\"9\" " + ok + " attempt=\"4294967296\"")),
        CodecError);
    EXPECT_THROW(soapx.decode_request(soap_request("id=\"9\" " + ok, "7abc")), CodecError);

    const std::string reply =
        "<Envelope><Body><Reply id=\"1\"><result type=\"int\">7abc</result></Reply>"
        "</Body></Envelope>";
    EXPECT_THROW(soapx.decode_reply(Bytes(reply.begin(), reply.end())), CodecError);
}

TEST(Codecs, SoapRoundTripsNonFiniteDoubles) {
    // "%.17g" writes inf and nan; the strict parser must still read them.
    const SoapxCodec soapx;
    CallReply reply;
    for (double d : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::denorm_min(),
                     -std::numeric_limits<double>::max()}) {
        reply.result = MarshalledValue::of_double(d);
        EXPECT_EQ(soapx.decode_reply(soapx.encode_reply(reply)), reply) << d;
    }
    for (double nan : {std::numeric_limits<double>::quiet_NaN(),
                       -std::numeric_limits<double>::quiet_NaN()}) {
        reply.result = MarshalledValue::of_double(nan);
        EXPECT_TRUE(std::isnan(soapx.decode_reply(soapx.encode_reply(reply)).result.d));
    }
}

// ---- RMIB batch-entry framing (DESIGN.md §17) ---------------------------

TEST(RmibBatch, EntryRoundTripsAndUndercutsAFullRequest) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, 40};  // id 42 -> delta 2
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    Bytes wire = w.take();
    EXPECT_EQ(wire.at(0), 0xA4);
    EXPECT_EQ(rmib.decode_batch_entry(wire, ctx), req);
    // Entries omit src_node and shrink the id to a varint delta, so the
    // coalesced framing is strictly smaller than a standalone request.
    EXPECT_LT(wire.size(), rmib.encode_request(req).size());
}

TEST(RmibBatch, UnreliableEntryOmitsTheReliabilityExtension) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, req.request_id};  // delta 0
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    Bytes lean = w.take();
    EXPECT_EQ(lean.at(1), 0x00);  // flags byte: not reliable
    EXPECT_EQ(rmib.decode_batch_entry(lean, ctx), req);

    req.attempt = 3;
    req.deadline_us = 9999;
    ByteWriter w2;
    rmib.encode_batch_entry(req, ctx, w2);
    Bytes reliable = w2.take();
    EXPECT_EQ(reliable.at(1), 0x01);  // reliable flag alone
    EXPECT_EQ(reliable.size(), lean.size() + 12);  // u32 attempt + u64 deadline
    EXPECT_EQ(rmib.decode_batch_entry(reliable, ctx), req);
}

TEST(RmibBatch, DecodeRequestRejectsBatchEntry) {
    // An entry is only meaningful against the frame that opened the lane;
    // the standalone decoder must refuse it rather than misparse.
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, req.request_id};
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    EXPECT_THROW(rmib.decode_request(w.take()), CodecError);
}

TEST(RmibBatch, EncodeValidatesAgainstContext) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    ByteWriter w;
    BatchContext wrong_src{req.src_node + 1, req.request_id};
    EXPECT_THROW(rmib.encode_batch_entry(req, wrong_src, w), CodecError);
    BatchContext later_base{req.src_node, req.request_id + 1};
    EXPECT_THROW(rmib.encode_batch_entry(req, later_base, w), CodecError);
}

TEST(RmibBatch, DecodeRejectsUnknownFlagsAndTrailingBytes) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, req.request_id};
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    Bytes wire = w.take();

    Bytes bad_flags = wire;
    bad_flags[1] = 0x04;  // not a defined entry flag
    EXPECT_THROW(rmib.decode_batch_entry(bad_flags, ctx), CodecError);
    // 0x02 once flagged a trace context; no trace field travels any more,
    // so it is as unknown as any other undefined bit.
    bad_flags[1] = 0x02;
    EXPECT_THROW(rmib.decode_batch_entry(bad_flags, ctx), CodecError);

    Bytes trailing = wire;
    trailing.push_back(0xff);
    EXPECT_THROW(rmib.decode_batch_entry(trailing, ctx), CodecError);
}

TEST(RmibBatch, LargeIdDeltaRoundTrips) {
    // The varint delta must survive multi-byte encodings.
    RmibCodec rmib;
    CallRequest req = sample_request();
    req.request_id = 1'000'000'042ULL;
    BatchContext ctx{req.src_node, 42};
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    EXPECT_EQ(rmib.decode_batch_entry(w.take(), ctx).request_id, req.request_id);
}

// ---- SOAPX numeric formatting pins --------------------------------------
//
// The streaming encoder replaced an ostringstream; these differential
// tests pin that std::to_string, the std::to_chars the encoder now uses
// for integers, and snprintf("%.17g") reproduce the historical ostream
// output byte for byte, which the E5/E8 wire-size guarantees depend on.

TEST(SoapxFormat, ToStringMatchesOstreamForIntegers) {
    for (long long v : {0LL, 1LL, -1LL, 42LL, -12345678901234LL,
                        9223372036854775807LL, -9223372036854775807LL - 1}) {
        std::ostringstream os;
        os << v;
        EXPECT_EQ(std::to_string(v), os.str()) << v;
        char buf[24];
        const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
        EXPECT_EQ(std::string(buf, end), os.str()) << v;
    }
}

TEST(SoapxFormat, Snprintf17gMatchesOstreamPrecision17) {
    for (double v : {0.0, -0.0, 1.0, 2.5, 0.1, 1.0 / 3.0, 1e300, 1e-300,
                     -1.7976931348623157e308, 12345678901234567.0, 6.02214076e23}) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        std::ostringstream os;
        os.precision(17);
        os << v;
        EXPECT_EQ(std::string(buf), os.str()) << v;
    }
}

TEST(Codecs, SoapIsLargerOnTheWire) {
    RmibCodec rmib;
    SoapxCodec soapx;
    CallRequest req = sample_request();
    EXPECT_GT(soapx.encode_request(req).size(), 2 * rmib.encode_request(req).size());
}

TEST(Codecs, SoapIsMoreExpensivePerByte) {
    RmibCodec rmib;
    SoapxCodec soapx;
    EXPECT_GT(soapx.cpu_cost_ns_per_byte(), rmib.cpu_cost_ns_per_byte());
}

TEST(Codecs, RmibRejectsGarbage) {
    RmibCodec rmib;
    Bytes junk{0x00, 0x01, 0x02};
    EXPECT_THROW(rmib.decode_request(junk), CodecError);
    EXPECT_THROW(rmib.decode_reply(junk), CodecError);
    EXPECT_THROW(rmib.decode_request(Bytes{}), CodecError);
}

TEST(Codecs, SoapRejectsGarbage) {
    SoapxCodec soapx;
    std::string junk = "<Envelope><Body></Body>";
    EXPECT_THROW(soapx.decode_request(Bytes(junk.begin(), junk.end())), CodecError);
    std::string wrong = "<Envelope><Body><Nope></Nope></Body></Envelope>";
    EXPECT_THROW(soapx.decode_request(Bytes(wrong.begin(), wrong.end())), CodecError);
}

TEST(Codecs, RmibRejectsTrailingBytes) {
    RmibCodec rmib;
    Bytes b = rmib.encode_reply(CallReply{});
    b.push_back(0xff);
    EXPECT_THROW(rmib.decode_reply(b), CodecError);
}

class BinaryCodecs : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<Codec> codec_ = make_codec(GetParam());
};

TEST_P(BinaryCodecs, RejectTrailingBytesAfterAValidFrame) {
    Bytes req = codec_->encode_request(sample_request());
    EXPECT_NO_THROW(codec_->decode_request(req));
    req.push_back(0);
    EXPECT_THROW(codec_->decode_request(req), CodecError);

    CallReply reply;
    reply.request_id = 9;
    reply.result = MarshalledValue::of_int(3);
    Bytes rep = codec_->encode_reply(reply);
    EXPECT_NO_THROW(codec_->decode_reply(rep));
    rep.push_back(0);
    EXPECT_THROW(codec_->decode_reply(rep), CodecError);
}

TEST_P(BinaryCodecs, ShareTheBodyButKeepTheirErrorPrefix) {
    // The value tag is the last byte of a non-fault reply; 0x7f is no tag.
    CallReply reply;
    Bytes rep = codec_->encode_reply(reply);
    rep.back() = 0x7f;
    const std::string prefix = std::string(GetParam()) == "RMI" ? "rmib:" : "corbx:";
    try {
        codec_->decode_reply(rep);
        FAIL() << "expected CodecError";
    } catch (const CodecError& e) {
        EXPECT_NE(std::string(e.what()).find(prefix), std::string::npos) << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, BinaryCodecs, ::testing::Values("RMI", "CORBA"));

TEST(Codecs, MakeCodecUnknownProtocol) {
    EXPECT_THROW(make_codec("DCOM"), CodecError);
    EXPECT_THROW(make_codec(""), CodecError);
}

TEST(Codecs, WireSizeOrderingRmiCorbaSoap) {
    // CORBX pays a GIOP-ish header and CDR alignment over RMIB, but stays
    // far below SOAPX's text encoding.
    CallRequest req = sample_request();
    std::size_t rmi = make_codec("RMI")->encode_request(req).size();
    std::size_t corba = make_codec("CORBA")->encode_request(req).size();
    std::size_t soap = make_codec("SOAP")->encode_request(req).size();
    EXPECT_LT(rmi, corba);
    EXPECT_LT(corba, soap);
}

TEST(Codecs, CorbxRejectsGarbage) {
    auto corba = make_codec("CORBA");
    Bytes junk{'N', 'O', 'P', 'E', 1, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_THROW(corba->decode_request(junk), CodecError);
    // A reply is not a request.
    CallReply reply;
    EXPECT_THROW(corba->decode_request(corba->encode_reply(reply)), CodecError);
}

TEST(Codecs, CrossCodecMessagesAreIncompatible) {
    // A SOAP payload must not decode as RMIB (and vice versa) — proxies and
    // skeletons must agree on the protocol.
    RmibCodec rmib;
    SoapxCodec soapx;
    EXPECT_THROW(rmib.decode_request(soapx.encode_request(sample_request())), CodecError);
}

TEST(Codecs, SoapRejectsDeepNestingWithoutRecursingIntoIt) {
    // The encoder's documents are 4 elements deep; a hostile frame of
    // 100,000 nested elements must fail as a CodecError, not exhaust the
    // native stack.
    std::string open;
    for (int k = 0; k < 100000; ++k) open += "<a>";
    std::string closed = open;
    for (int k = 0; k < 100000; ++k) closed += "</a>";
    const SoapxCodec soapx;
    for (const std::string& xml : {open, closed}) {
        EXPECT_THROW(soapx.decode_request(Bytes(xml.begin(), xml.end())), CodecError);
        EXPECT_THROW(soapx.decode_reply(Bytes(xml.begin(), xml.end())), CodecError);
    }
}

TEST(Codecs, SoapDecodesSpacedElementsAndRejectsSelfClosingOnes) {
    // Hand-written documents: whitespace between elements still decodes;
    // a self-closing element, which the encoder never writes, does not.
    const std::string head =
        "<Envelope>\n <Body>\n  <Request kind=\"invoke\" id=\"9\" src=\"1\" target=\"5\""
        " class=\"\" method=\"m\" desc=\"(I)I\">\n";
    const std::string tail = "\n  </Request>\n </Body>\n</Envelope>\n";
    const std::string spaced = head + "   <arg type=\"string\"> a &amp; b </arg>" + tail;
    const CallRequest req = SoapxCodec().decode_request(Bytes(spaced.begin(), spaced.end()));
    ASSERT_EQ(req.args.size(), 1u);
    EXPECT_EQ(req.args[0], MarshalledValue::of_str(" a & b "));
    const std::string closed = head + "   <arg type=\"null\"/>" + tail;
    EXPECT_THROW(SoapxCodec().decode_request(Bytes(closed.begin(), closed.end())), CodecError);
}

TEST(Codecs, SoapRejectsRepeatedAttributes) {
    // A repeated attribute is an XML well-formedness error; it must not
    // let the last value win.
    const SoapxCodec soapx;
    const std::string ok = "src=\"1\" target=\"5\"";
    EXPECT_THROW(soapx.decode_request(soap_request("id=\"1\" id=\"2\" " + ok)), CodecError);
    const std::string arg =
        "<Envelope><Body><Reply id=\"1\"><result type=\"int\" type=\"long\">7</result>"
        "</Reply></Body></Envelope>";
    EXPECT_THROW(soapx.decode_reply(Bytes(arg.begin(), arg.end())), CodecError);
}

TEST(Codecs, BinaryCodecsRejectAnArgumentCountBeyondTheFrame) {
    // A corrupt count must be a CodecError, not a multi-gigabyte reserve.
    CallRequest req;
    req.method = "m";
    for (const char* protocol : {"RMI", "CORBA"}) {
        const auto codec = make_codec(protocol);
        Bytes b = codec->encode_request(req);
        for (int k = 1; k <= 4; ++k) b[b.size() - k] = 0xFF;  // the trailing u32 count
        EXPECT_THROW(codec->decode_request(b), CodecError) << protocol;
    }
}

// ---- wire goldens: every byte of one frame per layout ---------------------
//
// The expected frames are hex literals, so a change to ByteWriter's byte
// order or field widths fails here even though encoder and decoder would
// still agree with each other.

/// Invoke 42 from node 3 on object 77: `m(JS)J` with a long and a string.
CallRequest golden_request() {
    CallRequest req;
    req.request_id = 42;
    req.src_node = 3;
    req.target_oid = 77;
    req.method = "m";
    req.desc = "(JS)J";
    req.args = {MarshalledValue::of_long(-2), MarshalledValue::of_str("hi")};
    return req;
}

/// The reply to it: 2.5, whose IEEE-754 bits are 0x4004000000000000.
CallReply golden_reply() {
    CallReply reply;
    reply.request_id = 42;
    reply.result = MarshalledValue::of_double(2.5);
    return reply;
}

void expect_golden_request(const Codec& codec, const CallRequest& req, const Bytes& frame) {
    EXPECT_EQ(codec.encode_request(req), frame);
    EXPECT_EQ(codec.decode_request(frame), req);
}

TEST(WireGolden, RmibBaseRequest) {
    expect_golden_request(RmibCodec(), golden_request(),
                          hex("a1 00"                       // magic, kind
                              "2a00000000000000 03000000"   // request_id, src_node
                              "4d00000000000000"            // target_oid
                              "00000000"                    // cls ""
                              "01000000 6d"                 // method "m"
                              "05000000 284a53294a"         // desc "(JS)J"
                              "02000000"                    // two arguments
                              "03 feffffffffffffff"         // Long -2
                              "05 02000000 6869"));         // Str "hi"
}

TEST(WireGolden, RmibReliableRequest) {
    CallRequest req = golden_request();
    req.attempt = 2;
    req.deadline_us = 90'000;
    expect_golden_request(RmibCodec(), req,
                          hex("a3"                          // reliable magic
                              "02000000 905f010000000000"   // attempt, deadline_us
                              "00"                          // kind
                              "2a00000000000000 03000000"
                              "4d00000000000000"
                              "00000000 01000000 6d 05000000 284a53294a"
                              "02000000 03 feffffffffffffff 05 02000000 6869"));
}

TEST(WireGolden, CorbxRequest) {
    // CDR pads to a 4-byte boundary, counted from the frame start, before
    // every multi-byte value.
    expect_golden_request(*make_codec("CORBA"), golden_request(),
                          hex("43524258 0100 00 00"          // "CRBX", 1.0, request, flags
                              "00000000"                    // body length (unused)
                              "00 000000"                   // kind, pad
                              "2a00000000000000 03000000"   // request_id, src_node
                              "4d00000000000000"            // target_oid
                              "00000000"                    // cls ""
                              "01000000 6d 000000"          // method "m", pad
                              "05000000 284a53294a 000000"  // desc "(JS)J", pad
                              "02000000"                    // two arguments
                              "03 000000 feffffffffffffff"  // Long -2
                              "05 000000 02000000 6869"));  // Str "hi"
}

TEST(WireGolden, RmibReply) {
    const Bytes frame = hex("a2 2a00000000000000"  // magic, request_id
                            "00"                   // not a fault
                            "04 0000000000000440"); // Double 2.5
    EXPECT_EQ(RmibCodec().encode_reply(golden_reply()), frame);
    EXPECT_EQ(RmibCodec().decode_reply(frame), golden_reply());
}

TEST(WireGolden, CorbxReply) {
    const auto corba = make_codec("CORBA");
    const Bytes frame = hex("43524258 0100 01 00 00000000"  // header: reply
                            "2a00000000000000"              // request_id
                            "00 04 0000"                    // not a fault, Double, pad
                            "0000000000000440");            // 2.5
    EXPECT_EQ(corba->encode_reply(golden_reply()), frame);
    EXPECT_EQ(corba->decode_reply(frame), golden_reply());
}

// ---- decoding into a reused request ---------------------------------------
//
// The RPC path decodes every request into the CallRequest its nesting
// depth used last time (DESIGN.md §11).  Frame A leaves that target with
// the reliability extension, more arguments and a string too long for the
// small-string buffer; base frame B must then overwrite all of it.

/// Frame A's request: reliable, five arguments, long strings.
CallRequest rich_request() {
    CallRequest req = sample_request();
    req.attempt = 4;
    req.deadline_us = 77'000;
    req.cls = "SomeRatherLongClassName";
    req.method = "aMethodNameLongerThanFifteen";
    req.args.resize(5);
    req.args[2] = MarshalledValue::of_str("a string well past fifteen characters");
    return req;
}

/// Frame B's request: no extension, one short argument.
CallRequest lean_request() {
    CallRequest req;
    req.request_id = 43;
    req.src_node = 3;
    req.target_oid = 9;
    req.method = "n";
    req.desc = "(I)V";
    req.args = {MarshalledValue::of_int(5)};
    return req;
}

class ReusedDecodeTarget : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<Codec> codec_ = make_codec(GetParam());
};

TEST_P(ReusedDecodeTarget, OverwritesEveryFieldOfTheLastRequest) {
    const Bytes a = codec_->encode_request(rich_request());
    const Bytes b = codec_->encode_request(lean_request());
    CallRequest target;
    codec_->decode_request_into(a, target);
    ASSERT_EQ(target, rich_request());
    // Accounting fields never travel; a reused target must not keep them.
    target.stat_class = "Leftover";
    target.sim_wire_bytes = 999;
    const std::size_t capacity = target.args.capacity();
    codec_->decode_request_into(b, target);
    EXPECT_EQ(target, codec_->decode_request(b));
    EXPECT_EQ(target, lean_request());
    EXPECT_EQ(target.args.capacity(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReusedDecodeTarget,
                         ::testing::Values("RMI", "SOAP", "CORBA"));

TEST(RmibBatch, ReusedDecodeTargetOverwritesEveryField) {
    RmibCodec rmib;
    const BatchContext ctx{3, 40};
    CallRequest rich = rich_request();
    rich.src_node = ctx.src_node;
    ByteWriter wa, wb;
    rmib.encode_batch_entry(rich, ctx, wa);
    rmib.encode_batch_entry(lean_request(), ctx, wb);
    CallRequest target;
    rmib.decode_batch_entry_into(wa.data(), ctx, target);
    ASSERT_EQ(target, rich);
    target.stat_class = "Leftover";
    target.sim_wire_bytes = 999;
    rmib.decode_batch_entry_into(wb.data(), ctx, target);
    EXPECT_EQ(target, rmib.decode_batch_entry(wb.data(), ctx));
    EXPECT_EQ(target, lean_request());
}

// ---- fuzz smoke: mutated frames decode or throw CodecError ---------------
//
// Frames arrive from the (simulated) network, so every decoder must treat
// them as untrusted: each truncation and each seeded bit flip of a valid
// frame either decodes or throws CodecError — never crashes, hangs or
// throws anything else.  tools/check.sh runs these under ASan+UBSan.

class CodecFuzz : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<Codec> codec_ = make_codec(GetParam());

    /// Valid frames, each tagged with whether it is a request.
    std::vector<std::pair<Bytes, bool>> frames() const {
        CallRequest reliable = sample_request();
        reliable.attempt = 2;
        reliable.deadline_us = 90'000;
        CallReply ok;
        ok.request_id = 7;
        ok.result = MarshalledValue::of_str("a<b & \"c\"");
        CallReply fault;
        fault.request_id = 8;
        fault.is_fault = true;
        fault.fault_class = "Boom";
        fault.fault_msg = "it & broke";
        return {{codec_->encode_request(sample_request()), true},
                {codec_->encode_request(reliable), true},
                {codec_->encode_reply(ok), false},
                {codec_->encode_reply(fault), false}};
    }

    /// Decodes `b`; returns true when it decoded, false on CodecError.
    bool decodes(const Bytes& b, bool request) const {
        try {
            if (request) codec_->decode_request(b);
            else codec_->decode_reply(b);
            return true;
        } catch (const CodecError&) {
            return false;
        }
    }

    /// Decodes request frame `bad` into `target`, which a previous decode
    /// left dirty, then the good `frame`: whatever `bad` did, the good
    /// frame must overwrite the target completely.  Returns whether `bad`
    /// decoded.
    bool decodes_into(const Bytes& bad, const Bytes& frame, CallRequest& target) const {
        bool ok = true;
        try {
            codec_->decode_request_into(bad, target);
        } catch (const CodecError&) {
            ok = false;
        }
        codec_->decode_request_into(frame, target);
        EXPECT_EQ(target, codec_->decode_request(frame)) << GetParam();
        return ok;
    }

    /// A target dirty with a different request than any fuzzed frame.
    CallRequest dirty_target() const {
        CallRequest target;
        codec_->decode_request_into(codec_->encode_request(rich_request()), target);
        target.stat_class = "Leftover";
        return target;
    }
};

TEST_P(CodecFuzz, EveryTruncationThrowsCodecError) {
    for (const auto& [frame, request] : frames()) {
        ASSERT_TRUE(decodes(frame, request));
        for (std::size_t n = 0; n < frame.size(); ++n)
            EXPECT_FALSE(decodes(Bytes(frame.begin(), frame.begin() + n), request))
                << GetParam() << " frame cut at " << n << " of " << frame.size();
    }
}

TEST_P(CodecFuzz, BitFlipsDecodeOrThrowCodecError) {
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull;  // deterministic, seedless
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };
    int decoded = 0, rejected = 0;
    for (const auto& [frame, request] : frames()) {
        for (int trial = 0; trial < 400; ++trial) {
            Bytes bad = frame;
            const int flips = 1 + static_cast<int>(next() % 3);
            for (int f = 0; f < flips; ++f)
                bad[next() % bad.size()] ^= static_cast<std::uint8_t>(1u << (next() % 8));
            ++(decodes(bad, request) ? decoded : rejected);
        }
    }
    // Both outcomes occur: the smoke reaches past the first check.
    EXPECT_GT(decoded, 0) << GetParam();
    EXPECT_GT(rejected, 0) << GetParam();
}

TEST_P(CodecFuzz, EveryTruncationIntoADirtyTargetIsOverwrittenByTheNextFrame) {
    CallRequest target = dirty_target();
    for (const auto& [frame, request] : frames()) {
        if (!request) continue;
        for (std::size_t n = 0; n < frame.size(); ++n)
            EXPECT_FALSE(decodes_into(Bytes(frame.begin(), frame.begin() + n), frame, target))
                << GetParam() << " frame cut at " << n << " of " << frame.size();
    }
}

TEST_P(CodecFuzz, BitFlipsIntoADirtyTargetAreOverwrittenByTheNextFrame) {
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;  // deterministic, seedless
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };
    CallRequest target = dirty_target();
    int decoded = 0, rejected = 0;
    for (const auto& [frame, request] : frames()) {
        if (!request) continue;
        for (int trial = 0; trial < 400; ++trial) {
            Bytes bad = frame;
            const int flips = 1 + static_cast<int>(next() % 3);
            for (int f = 0; f < flips; ++f)
                bad[next() % bad.size()] ^= static_cast<std::uint8_t>(1u << (next() % 8));
            ++(decodes_into(bad, frame, target) ? decoded : rejected);
        }
    }
    EXPECT_GT(decoded, 0) << GetParam();
    EXPECT_GT(rejected, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Protocols, CodecFuzz, ::testing::Values("RMI", "CORBA", "SOAP"));

}  // namespace
}  // namespace rafda::net
