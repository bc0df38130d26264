#include "runtime/policy_config.hpp"

#include <limits>
#include <optional>

#include "net/codec.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rafda::runtime {

namespace {

void check_protocol(const std::string& proto, int lineno) {
    try {
        net::make_codec(proto);
    } catch (const CodecError&) {
        throw ParseError("unknown protocol '" + proto + "'", lineno);
    }
}

/// `tok` as one whole number in its field's own type T (parse_whole: no
/// sign prefix, no trailing bytes, within T's range); `what` names it in
/// the error.
template <class T>
T parse_number(const std::string& tok, int lineno, const char* what = "number") {
    const std::optional<T> v = parse_whole<T>(tok);
    if (!v) throw ParseError(std::string("bad ") + what + " '" + tok + "'", lineno);
    return *v;
}

net::NodeId parse_node(const std::string& tok, int lineno) {
    const net::NodeId v = parse_number<net::NodeId>(tok, lineno, "node id");
    if (v < 0) throw ParseError("bad node id '" + tok + "'", lineno);
    return v;
}

std::uint64_t parse_u64(const std::string& tok, int lineno) {
    return parse_number<std::uint64_t>(tok, lineno);
}

/// A whole-token number in [lo, hi]; `what` names it in the error.
double parse_real(const std::string& tok, double lo, double hi, const char* what,
                  int lineno) {
    const double v = parse_number<double>(tok, lineno, what);
    if (!(v >= lo && v <= hi))
        throw ParseError(std::string("bad ") + what + " '" + tok + "'", lineno);
    return v;
}

double parse_prob(const std::string& tok, int lineno) {
    return parse_real(tok, 0.0, 1.0, "probability", lineno);
}

/// Parses the trailing `from T until T [period P]` of a fault line into
/// `w`; `t` indexes the first expected token.
void parse_fault_window(const std::vector<std::string>& toks, std::size_t t,
                        bool allow_period, net::FaultWindow& w, int lineno) {
    if (t + 3 >= toks.size() || toks[t] != "from" || toks[t + 2] != "until")
        throw ParseError("expected 'from T until T'", lineno);
    w.from_us = parse_u64(toks[t + 1], lineno);
    w.until_us = parse_u64(toks[t + 3], lineno);
    if (w.until_us <= w.from_us)
        throw ParseError("fault window must end after it starts", lineno);
    t += 4;
    if (t < toks.size()) {
        if (!allow_period || toks[t] != "period" || t + 1 >= toks.size())
            throw ParseError("unexpected token '" + toks[t] + "'", lineno);
        w.period_us = parse_u64(toks[t + 1], lineno);
        t += 2;
    }
    if (t != toks.size()) throw ParseError("trailing tokens on fault line", lineno);
}

}  // namespace

void apply_policy_config(std::string_view text, DistributionPolicy& policy,
                         net::SimNetwork* network, RetryPolicy* reliability,
                         BatchPolicy* batching, AdaptPolicy* adaptation,
                         DurabilityPolicy* durability) {
    int lineno = 0;
    for (const std::string& raw : split(text, '\n')) {
        ++lineno;
        std::string_view line = trim(raw);
        std::size_t hash = line.find('#');
        if (hash != std::string_view::npos) line = trim(line.substr(0, hash));
        if (line.empty()) continue;

        std::vector<std::string> toks = split_ws(line);
        const std::string& head = toks[0];

        if (head == "protocol") {
            // protocol default PROTO
            if (toks.size() != 3 || toks[1] != "default")
                throw ParseError("syntax: protocol default PROTO", lineno);
            check_protocol(toks[2], lineno);
            policy.set_default_protocol(toks[2]);
        } else if (head == "instance" || head == "singleton") {
            // instance CLASS on NODE [via PROTO]
            if (toks.size() != 4 && toks.size() != 6)
                throw ParseError("syntax: " + head + " CLASS on NODE [via PROTO]", lineno);
            if (toks[2] != "on")
                throw ParseError("expected 'on' after class name", lineno);
            net::NodeId node = parse_node(toks[3], lineno);
            std::string proto;
            if (toks.size() == 6) {
                if (toks[4] != "via") throw ParseError("expected 'via PROTO'", lineno);
                check_protocol(toks[5], lineno);
                proto = toks[5];
            }
            if (head == "instance") policy.set_instance_home(toks[1], node, proto);
            else policy.set_singleton_home(toks[1], node, proto);
        } else if (head == "link") {
            // link SRC -> DST latency N [bandwidth B] [drop P]
            if (toks.size() < 6 || toks[2] != "->" || toks[4] != "latency")
                throw ParseError(
                    "syntax: link SRC -> DST latency N [bandwidth B] [drop P]", lineno);
            net::NodeId src = parse_node(toks[1], lineno);
            net::NodeId dst = parse_node(toks[3], lineno);
            net::LinkParams params;
            params.latency_us = parse_u64(toks[5], lineno);
            std::size_t t = 6;
            while (t < toks.size()) {
                if (toks[t] == "bandwidth" && t + 1 < toks.size()) {
                    params.bandwidth_bytes_per_us = parse_real(
                        toks[t + 1], 0.0, std::numeric_limits<double>::max(), "bandwidth",
                        lineno);
                    t += 2;
                } else if (toks[t] == "drop" && t + 1 < toks.size()) {
                    params.drop_probability = parse_prob(toks[t + 1], lineno);
                    t += 2;
                } else {
                    throw ParseError("unknown link attribute '" + toks[t] + "'", lineno);
                }
            }
            if (!network)
                throw ParseError("'link' line given but no network to configure", lineno);
            network->set_link(src, dst, params);
        } else if (head == "retry") {
            // retry attempts N [base B] [multiplier M] [cap C] [jitter J]
            //                 [budget N] [deadline D]
            if (!reliability)
                throw ParseError("'retry' line given but no reliability policy", lineno);
            if (toks.size() < 3 || toks.size() % 2 == 0 || toks[1] != "attempts")
                throw ParseError(
                    "syntax: retry attempts N [base B] [multiplier M] [cap C] "
                    "[jitter J] [budget N] [deadline D]",
                    lineno);
            const auto attempts = parse_number<std::uint32_t>(toks[2], lineno);
            if (attempts == 0) throw ParseError("attempts must be >= 1", lineno);
            reliability->attempts = attempts;
            for (std::size_t t = 3; t + 1 < toks.size(); t += 2) {
                const std::string& key = toks[t];
                const std::string& val = toks[t + 1];
                if (key == "base") reliability->backoff_base_us = parse_u64(val, lineno);
                else if (key == "multiplier")
                    reliability->backoff_multiplier = parse_real(
                        val, 1.0, std::numeric_limits<double>::max(), "multiplier", lineno);
                else if (key == "cap") reliability->backoff_cap_us = parse_u64(val, lineno);
                else if (key == "jitter") reliability->jitter_us = parse_u64(val, lineno);
                else if (key == "budget") reliability->retry_budget = parse_u64(val, lineno);
                else if (key == "deadline") reliability->deadline_us = parse_u64(val, lineno);
                else throw ParseError("unknown retry attribute '" + key + "'", lineno);
            }
        } else if (head == "dedup") {
            // dedup on|off [capacity N]
            if (!reliability)
                throw ParseError("'dedup' line given but no reliability policy", lineno);
            if (toks.size() != 2 && toks.size() != 4)
                throw ParseError("syntax: dedup on|off [capacity N]", lineno);
            if (toks[1] != "on" && toks[1] != "off")
                throw ParseError("dedup must be 'on' or 'off'", lineno);
            reliability->dedup = toks[1] == "on";
            if (toks.size() == 4) {
                if (toks[2] != "capacity")
                    throw ParseError("expected 'capacity N'", lineno);
                reliability->dedup_capacity = parse_number<std::size_t>(toks[3], lineno);
            }
        } else if (head == "breaker") {
            // breaker threshold N [cooldown C]
            if (!reliability)
                throw ParseError("'breaker' line given but no reliability policy", lineno);
            if ((toks.size() != 3 && toks.size() != 5) || toks[1] != "threshold")
                throw ParseError("syntax: breaker threshold N [cooldown C]", lineno);
            reliability->breaker_threshold = parse_number<std::uint32_t>(toks[2], lineno);
            if (toks.size() == 5) {
                if (toks[3] != "cooldown")
                    throw ParseError("expected 'cooldown C'", lineno);
                reliability->breaker_cooldown_us = parse_u64(toks[4], lineno);
            }
        } else if (head == "batch") {
            // batch on|off [max N]
            if (!batching)
                throw ParseError("'batch' line given but no batch policy", lineno);
            if (toks.size() != 2 && toks.size() != 4)
                throw ParseError("syntax: batch on|off [max N]", lineno);
            if (toks[1] != "on" && toks[1] != "off")
                throw ParseError("batch must be 'on' or 'off'", lineno);
            batching->enabled = toks[1] == "on";
            if (toks.size() == 4) {
                if (toks[2] != "max") throw ParseError("expected 'max N'", lineno);
                const auto max_calls = parse_number<std::uint32_t>(toks[3], lineno);
                if (max_calls < 2)
                    throw ParseError("batch max must be >= 2 (opener + entry)", lineno);
                batching->max_frame_calls = max_calls;
            }
        } else if (head == "adapt") {
            // adapt on|off [interval N] [migrate-threshold B]
            //              [replicate-ratio R] [min-calls N]
            if (!adaptation)
                throw ParseError("'adapt' line given but no adaptation policy",
                                 lineno);
            if (toks.size() < 2 || toks.size() % 2 != 0)
                throw ParseError(
                    "syntax: adapt on|off [interval N] [migrate-threshold B] "
                    "[replicate-ratio R] [min-calls N]",
                    lineno);
            if (toks[1] != "on" && toks[1] != "off")
                throw ParseError("adapt must be 'on' or 'off'", lineno);
            adaptation->enabled = toks[1] == "on";
            for (std::size_t t = 2; t + 1 < toks.size(); t += 2) {
                const std::string& key = toks[t];
                const std::string& val = toks[t + 1];
                if (key == "interval") {
                    adaptation->interval_us = parse_u64(val, lineno);
                    if (adaptation->interval_us == 0)
                        throw ParseError("interval must be > 0", lineno);
                } else if (key == "migrate-threshold") {
                    adaptation->migrate_threshold_bytes = parse_u64(val, lineno);
                } else if (key == "replicate-ratio") {
                    adaptation->replicate_ratio = parse_prob(val, lineno);
                } else if (key == "min-calls") {
                    adaptation->min_window_calls = parse_u64(val, lineno);
                } else {
                    throw ParseError("unknown adapt attribute '" + key + "'",
                                     lineno);
                }
            }
        } else if (head == "durable") {
            // durable on|off [snapshot-interval N]
            if (!durability)
                throw ParseError("'durable' line given but no durability policy",
                                 lineno);
            if (toks.size() != 2 && toks.size() != 4)
                throw ParseError("syntax: durable on|off [snapshot-interval N]",
                                 lineno);
            if (toks[1] != "on" && toks[1] != "off")
                throw ParseError("durable must be 'on' or 'off'", lineno);
            durability->enabled = toks[1] == "on";
            if (toks.size() == 4) {
                if (toks[2] != "snapshot-interval")
                    throw ParseError("expected 'snapshot-interval N'", lineno);
                durability->snapshot_interval_us = parse_u64(toks[3], lineno);
            }
        } else if (head == "fault") {
            // fault link SRC -> DST down|flap from T until T [period P]
            // fault link SRC -> DST drop P from T until T
            // fault node N crash from T until T
            if (!network)
                throw ParseError("'fault' line given but no network to configure", lineno);
            if (toks.size() < 2)
                throw ParseError("syntax: fault link|node ...", lineno);
            net::FaultWindow w;
            if (toks[1] == "link") {
                if (toks.size() < 6 || toks[3] != "->")
                    throw ParseError(
                        "syntax: fault link SRC -> DST down|flap|drop ...", lineno);
                w.src = parse_node(toks[2], lineno);
                w.dst = parse_node(toks[4], lineno);
                const std::string& mode = toks[5];
                if (mode == "down") {
                    w.kind = net::FaultKind::LinkDown;
                    parse_fault_window(toks, 6, /*allow_period=*/false, w, lineno);
                } else if (mode == "flap") {
                    w.kind = net::FaultKind::LinkFlap;
                    parse_fault_window(toks, 6, /*allow_period=*/true, w, lineno);
                    if (w.period_us == 0)
                        throw ParseError("flap needs 'period P' with P > 0", lineno);
                } else if (mode == "drop") {
                    if (toks.size() < 7)
                        throw ParseError("syntax: fault link SRC -> DST drop P from T until T",
                                         lineno);
                    w.kind = net::FaultKind::DropRate;
                    w.drop_probability = parse_prob(toks[6], lineno);
                    parse_fault_window(toks, 7, /*allow_period=*/false, w, lineno);
                } else {
                    throw ParseError("unknown link fault '" + mode + "'", lineno);
                }
            } else if (toks[1] == "node") {
                if (toks.size() < 4 || toks[3] != "crash")
                    throw ParseError("syntax: fault node N crash from T until T", lineno);
                w.kind = net::FaultKind::NodeCrash;
                w.node = parse_node(toks[2], lineno);
                parse_fault_window(toks, 4, /*allow_period=*/false, w, lineno);
            } else {
                throw ParseError("fault target must be 'link' or 'node'", lineno);
            }
            network->fault_plan().add(w);
        } else {
            throw ParseError("unknown directive '" + head + "'", lineno);
        }
    }
}

}  // namespace rafda::runtime
