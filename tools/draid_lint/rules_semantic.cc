/**
 * @file
 * The v2 semantic rules, built on the per-file index (index.h) and the
 * module layering DAG (graph.h):
 *
 *  - layering:            include edges must follow the declared DAG
 *  - tick-unit:           no raw sim::Tick parameters/returns in the
 *                         scheduling + latency APIs (use sim::Ticks)
 *  - bounded-memory:      growable container members under src/ carry a
 *                         `// draid-lint: cap(<expr>)` bound annotation
 *  - callback-discipline: event callbacks must not re-enter the engine,
 *                         fan out schedules in loops, or allocate in loops
 */

#include "graph.h"
#include "index.h"
#include "lint.h"

#include <set>

namespace draidlint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

const std::string &
tokText(const FileUnit &u, std::size_t i)
{
    static const std::string kEmpty;
    return i < u.tokens.size() ? u.tokens[i].text : kEmpty;
}

bool
isIdent(const FileUnit &u, std::size_t i)
{
    return i < u.tokens.size() &&
           u.tokens[i].kind == Token::Kind::kIdentifier;
}

/** Same suppression window as rules.cc: the comment line and line+1. */
struct RuleSink
{
    const FileUnit &unit;
    std::vector<Diagnostic> &out;

    void report(int line, const std::string &rule,
                const std::string &message) const
    {
        for (const Suppression &s : unit.suppressions)
            if (s.rule == rule && (s.line == line || s.line + 1 == line))
                return;
        out.push_back({unit.relPath, line, rule, message});
    }
};

// ---------------------------------------------------------------------------
// S1 layering: the include edge must exist in the declared module DAG
// ---------------------------------------------------------------------------

void
ruleLayering(const FileUnit &u, const RuleSink &sink)
{
    const std::string module = moduleOf(u.relPath);
    if (module.empty())
        return; // bench/tests/tools may include anything
    const auto &deps = allowedModuleDeps();
    auto it = deps.find(module);
    std::set<std::string> allowed =
        it != deps.end() ? it->second : std::set<std::string>{};
    allowed.insert(module);
    if (isNvmfBridge(u.relPath))
        allowed.insert({"cluster", "sim"});
    for (const Include &inc : u.includes) {
        if (!inc.quoted)
            continue;
        const std::string target = includeTargetModule(inc.target);
        if (target.empty() || allowed.count(target))
            continue;
        sink.report(inc.line, "layering",
                    "include edge " + u.relPath + " -> " + inc.target +
                        " violates the layering DAG: module '" + module +
                        "' may not depend on '" + target +
                        "' (allowed: " + allowedDepsFor(u.relPath) + ")");
    }
}

// ---------------------------------------------------------------------------
// S2 tick-unit: no raw sim::Tick in the scheduling / latency signatures
// ---------------------------------------------------------------------------

/**
 * The APIs where a raw tick count is an accident waiting to happen: the
 * engine's scheduling surface and the latency/throughput math fed by it.
 * src/sim/types.h itself is exempt — it defines the strong type and its
 * raw()/Tick bridge. Raw Tick *storage* (members, serialized report
 * structs) stays legal everywhere; only parameters and returns carry the
 * unit-confusion risk this rule exists for.
 */
bool
inTickUnitScope(const std::string &path)
{
    static const std::set<std::string> kScope = {
        "src/sim/simulator.h", "src/sim/cpu.h",
        "src/sim/pipe.h",      "src/sim/stats.h",
        "src/nvme/ssd.h",      "src/telemetry/timeline.h",
    };
    return kScope.count(path) != 0;
}

void
scanRangeForRawTick(const FileUnit &u, const TokenRange &range,
                    const FunctionDecl &fn, const char *where,
                    const RuleSink &sink)
{
    for (std::size_t i = range.begin; i < range.end; ++i) {
        if (!isIdent(u, i) || u.tokens[i].text != "Tick")
            continue;
        sink.report(u.tokens[i].line, "tick-unit",
                    std::string("raw sim::Tick ") + where + " in '" +
                        fn.name +
                        "'; scheduling and latency APIs must take/return "
                        "the strong sim::Ticks type (src/sim/types.h)");
    }
}

void
ruleTickUnit(const FileUnit &u, const FileIndex &index,
             const RuleSink &sink)
{
    if (!inTickUnitScope(u.relPath))
        return;
    for (const FunctionDecl &fn : index.functions) {
        scanRangeForRawTick(u, fn.returnType, fn, "return type", sink);
        scanRangeForRawTick(u, fn.params, fn, "parameter", sink);
    }
}

// ---------------------------------------------------------------------------
// S3 bounded-memory: growable members under src/ declare their bound
// ---------------------------------------------------------------------------

void
ruleBoundedMemory(const FileUnit &u, const FileIndex &index,
                  const RuleSink &sink)
{
    if (!startsWith(u.relPath, "src/"))
        return;
    for (const GrowableMember &m : index.growableMembers) {
        bool capped = false;
        for (const CapAnnotation &cap : u.caps) {
            if (cap.line == m.line || cap.line + 1 == m.line) {
                capped = true;
                break;
            }
        }
        if (!capped)
            sink.report(
                m.line, "bounded-memory",
                "growable member '" + m.name + "' (std::" + m.container +
                    (m.className.empty() ? std::string()
                                         : " in " + m.className) +
                    ") has no bound annotation; add `// draid-lint: "
                    "cap(<expr>)` naming the invariant that bounds it, or "
                    "a reasoned allow(bounded-memory)");
    }
}

// ---------------------------------------------------------------------------
// S4 callback-discipline: event callbacks stay O(1) and re-entrance-free
// ---------------------------------------------------------------------------

/** Token extent of the loop starting at the `for`/`while` at @p i. */
TokenRange
loopExtent(const FileUnit &u, std::size_t i, std::size_t limit)
{
    std::size_t j = i + 1;
    if (tokText(u, j) == "(") {
        int depth = 0;
        for (; j < limit; ++j) {
            if (tokText(u, j) == "(")
                ++depth;
            else if (tokText(u, j) == ")" && --depth == 0) {
                ++j;
                break;
            }
        }
    }
    if (tokText(u, j) == "{") {
        int depth = 0;
        std::size_t k = j;
        for (; k < limit; ++k) {
            if (tokText(u, k) == "{")
                ++depth;
            else if (tokText(u, k) == "}" && --depth == 0)
                return {j + 1, k};
        }
        return {j + 1, limit};
    }
    // Single-statement body: up to the ';'.
    std::size_t k = j;
    while (k < limit && tokText(u, k) != ";")
        ++k;
    return {j, k};
}

void
ruleCallbackDiscipline(const FileUnit &u, const FileIndex &index,
                       const RuleSink &sink)
{
    if (!startsWith(u.relPath, "src/"))
        return;
    std::set<int> reported; // nested loops would double-report otherwise
    for (const CallbackBody &cb : index.callbacks) {
        for (std::size_t i = cb.body.begin; i < cb.body.end; ++i) {
            const std::string &t = tokText(u, i);
            // Re-entering the engine from inside an event drains
            // synchronously and corrupts the in-flight event ordering.
            if ((t == "run" || t == "runUntil" || t == "runFor") &&
                tokText(u, i + 1) == "(") {
                if (reported.insert(u.tokens[i].line).second)
                    sink.report(u.tokens[i].line, "callback-discipline",
                                "'" + t +
                                    "()' inside an event callback is a "
                                    "synchronous drain; schedule a "
                                    "continuation instead of re-entering "
                                    "the engine");
                continue;
            }
            if (t != "for" && t != "while")
                continue;
            const TokenRange body = loopExtent(u, i, cb.body.end);
            for (std::size_t j = body.begin; j < body.end; ++j) {
                const std::string &lt = tokText(u, j);
                if ((lt == "schedule" || lt == "scheduleAt") &&
                    tokText(u, j + 1) == "(") {
                    if (reported.insert(u.tokens[j].line).second)
                        sink.report(
                            u.tokens[j].line, "callback-discipline",
                            "'" + lt +
                                "()' in a loop inside an event callback "
                                "fans out unbounded events; schedule one "
                                "continuation that re-arms itself");
                } else if (lt == "new" || lt == "make_unique" ||
                           lt == "make_shared") {
                    if (reported.insert(u.tokens[j].line).second)
                        sink.report(
                            u.tokens[j].line, "callback-discipline",
                            "allocation ('" + lt +
                                "') in a loop inside an event callback; "
                                "hoist the allocation out of the hot "
                                "event path");
                }
            }
        }
    }
}

} // namespace

void
runSemanticRules(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    const FileIndex index = buildFileIndex(unit);
    RuleSink sink{unit, out};
    ruleLayering(unit, sink);
    ruleTickUnit(unit, index, sink);
    ruleBoundedMemory(unit, index, sink);
    ruleCallbackDiscipline(unit, index, sink);
}

} // namespace draidlint
