#include "net/soapx.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rafda::net {

namespace {

// ---- encoding -----------------------------------------------------------
//
// The document is appended piecewise to the caller's ByteWriter (in the
// RPC path a pooled frame), with no intermediate string.  The numeric
// formats must stay byte-identical to the historical ostream output:
// std::to_chars matches operator<< for integers, and "%.17g" matches a
// precision(17) defaultfloat stream for doubles (both pinned by
// SoapxFormat tests).

void append_text(ByteWriter& w, std::string_view v) { w.text(v); }

void append_escaped(ByteWriter& w, std::string_view v) {
    xml_escape_to(v, [&w](std::string_view run) { w.text(run); });
}

template <typename Int>
void append_int(ByteWriter& w, Int v) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    w.text(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void append_double(ByteWriter& w, double v) {
    char buf[40];
    int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    w.text(std::string_view(buf, static_cast<std::size_t>(n)));
}

const char* tag_name(ValueTag t) {
    switch (t) {
        case ValueTag::Null: return "null";
        case ValueTag::Bool: return "bool";
        case ValueTag::Int: return "int";
        case ValueTag::Long: return "long";
        case ValueTag::Double: return "double";
        case ValueTag::Str: return "string";
        case ValueTag::Ref: return "ref";
    }
    return "?";
}

ValueTag tag_from_name(std::string_view name) {
    if (name == "null") return ValueTag::Null;
    if (name == "bool") return ValueTag::Bool;
    if (name == "int") return ValueTag::Int;
    if (name == "long") return ValueTag::Long;
    if (name == "double") return ValueTag::Double;
    if (name == "string") return ValueTag::Str;
    if (name == "ref") return ValueTag::Ref;
    throw CodecError("soapx: unknown value type " + std::string(name));
}

void encode_value(ByteWriter& w, std::string_view element, const MarshalledValue& v) {
    append_text(w, "<");
    append_text(w, element);
    append_text(w, " type=\"");
    append_text(w, tag_name(v.tag));
    append_text(w, "\"");
    switch (v.tag) {
        case ValueTag::Ref:
            append_text(w, " node=\"");
            append_int(w, v.ref_node);
            append_text(w, "\" oid=\"");
            append_int(w, v.ref_oid);
            append_text(w, "\" class=\"");
            append_escaped(w, v.ref_class);
            append_text(w, "\">");
            break;
        case ValueTag::Null:
            append_text(w, ">");
            break;
        case ValueTag::Bool:
            append_text(w, ">");
            append_text(w, v.b ? "true" : "false");
            break;
        case ValueTag::Int:
            append_text(w, ">");
            append_int(w, v.i);
            break;
        case ValueTag::Long:
            append_text(w, ">");
            append_int(w, v.j);
            break;
        case ValueTag::Double:
            append_text(w, ">");
            append_double(w, v.d);
            break;
        case ValueTag::Str:
            append_text(w, ">");
            append_escaped(w, v.s);
            break;
    }
    append_text(w, "</");
    append_text(w, element);
    append_text(w, ">");
}

const char* kind_name(RequestKind k) {
    switch (k) {
        case RequestKind::Invoke: return "invoke";
        case RequestKind::Create: return "create";
        case RequestKind::Discover: return "discover";
    }
    return "?";
}

RequestKind kind_from_name(std::string_view name) {
    if (name == "invoke") return RequestKind::Invoke;
    if (name == "create") return RequestKind::Create;
    if (name == "discover") return RequestKind::Discover;
    throw CodecError("soapx: unknown request kind " + std::string(name));
}

/// Parses `text` as one whole number token within `Num`'s range: no sign
/// on unsigned fields, no trailing bytes, no empty value.  Everything the
/// encoder writes (std::to_chars, and "%.17g" including inf and nan)
/// round-trips.  `text` is read still escaped: no number holds an entity's
/// character, so an escaped one is as malformed as its unescaped form.
template <typename Num>
Num parse_number(std::string_view text, std::string_view what) {
    if (const std::optional<Num> v = parse_whole<Num>(text)) return *v;
    throw CodecError("soapx: bad number " + std::string(what) + "=\"" + std::string(text) + "\"");
}

// ---- decoding (a pull parser for exactly what we emit) ------------------
//
// The decoder asks for the elements it expects, in order; the parser reads
// the frame once and never recurses.  Names, attribute values and text are
// slices of the frame until a field keeps one as a string.

/// The "C" locale's isalnum plus '_', and its isspace, inline and
/// independent of whatever locale the host process sets.
constexpr bool is_name_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_';
}
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Most elements open at once; the encoder writes 4 levels.
constexpr std::size_t kMaxDepth = 8;
/// Most attributes on one element; a request carries 9 at most.
constexpr std::size_t kMaxAttrs = 16;

class Reader {
public:
    /// Opens <Envelope><Body><`payload`>, which wrap every frame's payload.
    Reader(const Bytes& data, std::string_view payload)
        : text_(reinterpret_cast<const char*>(data.data()), data.size()) {
        const std::string_view path[] = {"Envelope", "Body", payload};
        for (const std::string_view name : path)
            if (open() != name) fail("expected <" + std::string(name) + ">");
    }

    /// Reads the next start tag, skipping character data before it, and
    /// returns the element's name.  Its attributes replace the last ones.
    std::string_view open() {
        if (closing()) fail("expected an element");
        if (depth_ == kMaxDepth) fail("elements nested deeper than " + std::to_string(kMaxDepth));
        const std::size_t start = ++pos_;
        while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
        const std::string_view name = text_.substr(start, pos_ - start);
        if (name.empty()) fail("empty element name");
        attrs_ = 0;
        for (skip_ws(); !at('>'); skip_ws()) {
            if (pos_ >= text_.size()) fail("unterminated tag");
            const std::size_t key_start = pos_;
            while (pos_ < text_.size() && text_[pos_] != '=' && !is_space(text_[pos_]))
                ++pos_;
            const std::string_view key = text_.substr(key_start, pos_ - key_start);
            skip_ws();
            if (!at('=')) fail("expected '='");
            ++pos_;
            skip_ws();
            if (!at('"')) fail("expected '\"'");
            ++pos_;
            const std::string_view value = run('"', "attribute");
            ++pos_;
            for (std::size_t a = 0; a < attrs_; ++a)
                if (attr_[a].key == key) fail("repeated attribute " + std::string(key));
            if (attrs_ == kMaxAttrs) fail("more than " + std::to_string(kMaxAttrs) + " attributes");
            attr_[attrs_++] = {key, value};
        }
        ++pos_;
        open_[depth_++] = name;
        return name;
    }

    /// True when the next tag, after any character data, is a close tag.
    bool closing() {
        run('<', "element");
        return pos_ + 1 < text_.size() && text_[pos_ + 1] == '/';
    }

    /// The character data of the element just opened, still escaped.
    std::string_view text() { return run('<', "element"); }

    /// Reads the close tag of the innermost open element.
    void close() {
        const std::string_view name = open_[depth_ - 1];
        if (!closing()) fail("expected </" + std::string(name) + ">");
        pos_ += 2;
        const std::string_view close = run('>', "close tag");
        ++pos_;
        if (close != name)
            fail("mismatched close tag " + std::string(close) + " for " + std::string(name));
        --depth_;
    }

    /// Closes every open element; only whitespace may follow.
    void finish() {
        while (depth_ != 0) close();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content");
    }

    /// Attribute `key` of the element just opened, else `fallback` (the
    /// reliability attributes are only emitted when nonzero), else an error.
    std::string_view attr(const char* key, const char* fallback = nullptr) const {
        for (std::size_t a = 0; a < attrs_; ++a)
            if (attr_[a].key == key) return attr_[a].value;
        if (fallback) return fallback;
        throw CodecError(std::string("soapx: missing attribute ") + key);
    }

    template <typename Num>
    Num number(const char* key, const char* fallback = nullptr) const {
        return parse_number<Num>(attr(key, fallback), key);
    }

private:
    struct Attr { std::string_view key, value; };  // value still escaped

    bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

    void skip_ws() {
        while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    }

    /// The slice up to the next `c`, which is left unread.  A malformed
    /// entity fails the frame even in a slice no field reads.
    std::string_view run(char c, const char* what) {
        const std::size_t end = text_.find(c, pos_);
        if (end == std::string_view::npos) {
            pos_ = text_.size();
            fail(std::string("unterminated ") + what);
        }
        const std::string_view s = text_.substr(pos_, end - pos_);
        if (s.find('&') != std::string_view::npos) xml_unescape(s);
        pos_ = end;
        return s;
    }

    [[noreturn]] void fail(const std::string& what) const {
        throw CodecError("soapx: " + what + " at offset " + std::to_string(pos_));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::array<std::string_view, kMaxDepth> open_;  // open elements, outermost first
    std::size_t depth_ = 0;
    std::array<Attr, kMaxAttrs> attr_;
    std::size_t attrs_ = 0;
};

/// Decodes the value element just opened, through its close tag.
MarshalledValue decode_value(Reader& r, std::string_view element) {
    MarshalledValue v;
    v.tag = tag_from_name(r.attr("type"));
    if (v.tag == ValueTag::Ref) {
        v.ref_node = r.number<std::int32_t>("node");
        v.ref_oid = r.number<std::uint64_t>("oid");
        v.ref_class = xml_unescape(r.attr("class"));
    }
    const std::string_view text = r.text();
    switch (v.tag) {
        case ValueTag::Null: case ValueTag::Ref: break;
        case ValueTag::Bool: v.b = text == "true"; break;
        case ValueTag::Int: v.i = parse_number<std::int32_t>(text, element); break;
        case ValueTag::Long: v.j = parse_number<std::int64_t>(text, element); break;
        case ValueTag::Double: v.d = parse_number<double>(text, element); break;
        case ValueTag::Str: v.s = xml_unescape(text); break;
    }
    r.close();
    return v;
}

}  // namespace

const std::string& SoapxCodec::protocol() const {
    static const std::string name = "SOAP";
    return name;
}

void SoapxCodec::encode_request_into(const CallRequest& req, ByteWriter& w) const {
    append_text(w, "<Envelope><Body><Request kind=\"");
    append_text(w, kind_name(req.kind));
    append_text(w, "\" id=\"");
    append_int(w, req.request_id);
    append_text(w, "\" src=\"");
    append_int(w, req.src_node);
    append_text(w, "\" target=\"");
    append_int(w, req.target_oid);
    append_text(w, "\" class=\"");
    append_escaped(w, req.cls);
    append_text(w, "\" method=\"");
    append_escaped(w, req.method);
    append_text(w, "\" desc=\"");
    append_escaped(w, req.desc);
    append_text(w, "\"");
    // Reliability attributes only appear when set, so base-protocol
    // traffic keeps its original byte size (EXPERIMENTS.md E5).
    if (req.attempt != 0) {
        append_text(w, " attempt=\"");
        append_int(w, req.attempt);
        append_text(w, "\"");
    }
    if (req.deadline_us != 0) {
        append_text(w, " deadline=\"");
        append_int(w, req.deadline_us);
        append_text(w, "\"");
    }
    append_text(w, ">");
    for (const MarshalledValue& a : req.args) encode_value(w, "arg", a);
    append_text(w, "</Request></Body></Envelope>");
}

void SoapxCodec::decode_request_into(const Bytes& data, CallRequest& req) const {
    Reader r(data, "Request");
    req.clear_unframed();
    req.kind = kind_from_name(r.attr("kind"));
    req.request_id = r.number<std::uint64_t>("id");
    req.src_node = r.number<std::int32_t>("src");
    req.target_oid = r.number<std::uint64_t>("target");
    req.cls = xml_unescape(r.attr("class"));
    req.method = xml_unescape(r.attr("method"));
    req.desc = xml_unescape(r.attr("desc"));
    req.attempt = r.number<std::uint32_t>("attempt", "0");
    req.deadline_us = r.number<std::uint64_t>("deadline", "0");
    req.args.clear();  // keeps the capacity a reused request grew
    while (!r.closing()) {
        const std::string_view element = r.open();
        if (element != "arg")
            throw CodecError("soapx: unexpected <" + std::string(element) + ">");
        req.args.push_back(decode_value(r, element));
    }
    r.finish();
}

void SoapxCodec::encode_reply_into(const CallReply& reply, ByteWriter& w) const {
    append_text(w, "<Envelope><Body><Reply id=\"");
    append_int(w, reply.request_id);
    append_text(w, "\">");
    if (reply.is_fault) {
        append_text(w, "<fault class=\"");
        append_escaped(w, reply.fault_class);
        append_text(w, "\">");
        append_escaped(w, reply.fault_msg);
        append_text(w, "</fault>");
    } else {
        encode_value(w, "result", reply.result);
    }
    append_text(w, "</Reply></Body></Envelope>");
}

CallReply SoapxCodec::decode_reply(const Bytes& data) const {
    Reader r(data, "Reply");
    CallReply reply;
    reply.request_id = r.number<std::uint64_t>("id");
    const std::string_view payload = r.open();
    if (payload == "fault") {
        reply.is_fault = true;
        reply.fault_class = xml_unescape(r.attr("class"));
        reply.fault_msg = xml_unescape(r.text());
        r.close();
    } else if (payload == "result") {
        reply.result = decode_value(r, payload);
    } else {
        throw CodecError("soapx: unexpected reply payload <" + std::string(payload) + ">");
    }
    r.finish();  // a second payload fails as a missing </Reply>
    return reply;
}

}  // namespace rafda::net
