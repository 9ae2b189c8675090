#include "lint.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace draidlint {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/**
 * Code whose control flow feeds simulated ticks or exported artifacts
 * (DESIGN.md §5.6). Everything under src/ qualifies: the sim core and
 * RAID layers obviously, but also the apps (SST layout order reaches
 * fig19) and telemetry (TIMELINE_*.json is byte-compared in CI).
 */
bool
inSimScope(const std::string &path)
{
    return startsWith(path, "src/");
}

bool
inFpScope(const std::string &path)
{
    return startsWith(path, "src/sim/") || startsWith(path, "src/net/");
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

/**
 * Given the index of a '<' token, return the index one past its matching
 * '>' (token-level depth count; shifts are never fused by the lexer so
 * nested closes count correctly). Returns tokens.size() when unmatched.
 */
std::size_t
skipTemplateArgs(const FileUnit &u, std::size_t lt)
{
    int depth = 0;
    for (std::size_t i = lt; i < u.tokens.size(); ++i) {
        const std::string &t = u.tokens[i].text;
        if (t == "<")
            ++depth;
        else if (t == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (t == ";" || t == "{")
            break; // not a template argument list after all
    }
    return u.tokens.size();
}

/** Index of the identifier being declared after a type's template args,
 *  skipping cv/ref/ptr decoration; npos-equivalent when absent. */
std::size_t
declaredNameAfter(const FileUnit &u, std::size_t i)
{
    while (i < u.tokens.size() &&
           (tokText(u, i) == "&" || tokText(u, i) == "*" ||
            tokText(u, i) == "const"))
        ++i;
    if (isIdent(u, i))
        return i;
    return u.tokens.size();
}

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
// D1 wall-clock: no host-time reads outside src/telemetry/
// ---------------------------------------------------------------------------

void
ruleWallClock(const FileUnit &u, const RuleSink &sink)
{
    if (startsWith(u.relPath, "src/telemetry/"))
        return;
    static const std::set<std::string> kBanned = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "clock_gettime", "gettimeofday", "timespec_get", "mktime",
        "localtime",    "gmtime",       "strftime",      "ftime",
        "utc_clock",    "tai_clock",    "file_clock",
    };
    for (std::size_t i = 0; i < u.tokens.size(); ++i) {
        if (!isIdent(u, i))
            continue;
        const std::string &t = u.tokens[i].text;
        if (kBanned.count(t)) {
            sink.report(u.tokens[i].line, "wall-clock",
                        "'" + t +
                            "' reads host time; simulated time must come "
                            "from sim::Simulator::now()");
            continue;
        }
        // std::time / ::time / time(nullptr) / clock().
        if (t == "time" || t == "clock") {
            bool qualified = i > 0 && tokText(u, i - 1) == "::";
            bool null_call =
                tokText(u, i + 1) == "(" &&
                (tokText(u, i + 2) == "nullptr" ||
                 tokText(u, i + 2) == "NULL" ||
                 (t == "time" && tokText(u, i + 2) == "0") ||
                 (t == "clock" && tokText(u, i + 2) == ")"));
            if (qualified || null_call)
                sink.report(u.tokens[i].line, "wall-clock",
                            "'" + t +
                                "()' reads host time; simulated time must "
                                "come from sim::Simulator::now()");
        }
    }
}

// ---------------------------------------------------------------------------
// D2 raw-rng: all randomness flows through src/sim/rng.h
// ---------------------------------------------------------------------------

void
ruleRawRng(const FileUnit &u, const RuleSink &sink)
{
    if (u.relPath == "src/sim/rng.h" || u.relPath == "src/sim/rng.cc")
        return;
    for (const Include &inc : u.includes)
        if (!inc.quoted && inc.target == "random")
            sink.report(inc.line, "raw-rng",
                        "<random> engines/distributions are banned; draw "
                        "from sim::Rng (src/sim/rng.h) instead");
    static const std::set<std::string> kBanned = {
        "random_device",
        "mt19937",
        "mt19937_64",
        "minstd_rand",
        "minstd_rand0",
        "default_random_engine",
        "knuth_b",
        "ranlux24",
        "ranlux24_base",
        "ranlux48",
        "ranlux48_base",
        "linear_congruential_engine",
        "mersenne_twister_engine",
        "subtract_with_carry_engine",
        "discard_block_engine",
        "independent_bits_engine",
        "shuffle_order_engine",
        "uniform_int_distribution",
        "uniform_real_distribution",
        "normal_distribution",
        "bernoulli_distribution",
        "exponential_distribution",
        "poisson_distribution",
        "geometric_distribution",
        "binomial_distribution",
        "negative_binomial_distribution",
        "discrete_distribution",
        "piecewise_constant_distribution",
        "piecewise_linear_distribution",
        "srand",
        "srand48",
        "srandom",
        "rand_r",
        "drand48",
        "erand48",
        "lrand48",
        "nrand48",
        "mrand48",
        "jrand48",
        "arc4random",
    };
    // Telemetry is held to a stricter bar: it must not draw randomness
    // AT ALL, not even through sim::Rng — a trace-sampling decision
    // backed by an engine draw would shift the deterministic seed chain
    // and perturb the simulation it is observing. Sampling decisions
    // hash the trace id instead (telemetry/sampling.h). The contention
    // attribution sources (FIFO pipes, CPU cores, stripe locks — the
    // files that feed ContentionTracker occupancy/wait records) carry
    // the same bar: their recording hooks must stay a pure function of
    // the event stream or BENCH_interference.json stops being
    // byte-identical across same-seed runs.
    const bool telemetryScope =
        u.relPath.rfind("src/telemetry/", 0) == 0 ||
        u.relPath.rfind("src/sim/pipe", 0) == 0 ||
        u.relPath.rfind("src/sim/cpu", 0) == 0 ||
        u.relPath.rfind("src/raid/stripe_lock", 0) == 0;
    for (std::size_t i = 0; i < u.tokens.size(); ++i) {
        if (!isIdent(u, i))
            continue;
        const std::string &t = u.tokens[i].text;
        if (kBanned.count(t)) {
            sink.report(u.tokens[i].line, "raw-rng",
                        "'" + t +
                            "' bypasses the deterministic seed chain; "
                            "use sim::Rng (src/sim/rng.h)");
            continue;
        }
        if (telemetryScope && t == "Rng") {
            sink.report(u.tokens[i].line, "raw-rng",
                        "telemetry must be draw-free: an Rng draw here "
                        "would shift the engine's seed chain and perturb "
                        "the simulation; decide by hashing the trace id "
                        "(telemetry/sampling.h)");
            continue;
        }
        // Bare rand()/random() calls (but not foo.rand() / x->random()).
        if ((t == "rand" || t == "random") && tokText(u, i + 1) == "(") {
            const std::string &prev = i > 0 ? tokText(u, i - 1) : "";
            if (prev != "." && prev != "->")
                sink.report(u.tokens[i].line, "raw-rng",
                            "'" + t +
                                "()' is unseeded global state; use "
                                "sim::Rng (src/sim/rng.h)");
        }
    }
}

// ---------------------------------------------------------------------------
// D3 unordered-iter: no hash-order traversal in sim-affecting code
// ---------------------------------------------------------------------------

bool
isUnorderedContainer(const std::string &t)
{
    return t == "unordered_map" || t == "unordered_set" ||
           t == "unordered_multimap" || t == "unordered_multiset";
}

/** Names declared as unordered containers (members, locals, aliases). */
std::set<std::string>
collectUnorderedDecls(const FileUnit &u)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < u.tokens.size(); ++i) {
        if (!isIdent(u, i) || !isUnorderedContainer(u.tokens[i].text) ||
            tokText(u, i + 1) != "<")
            continue;
        // `using Alias = std::unordered_map<...>;` declares the alias.
        if (i >= 4 && tokText(u, i - 1) == "::" &&
            tokText(u, i - 3) == "=" && isIdent(u, i - 4) &&
            i >= 5 && tokText(u, i - 5) == "using") {
            names.insert(u.tokens[i - 4].text);
            continue;
        }
        std::size_t after = skipTemplateArgs(u, i + 1);
        std::size_t name = declaredNameAfter(u, after);
        if (name < u.tokens.size())
            names.insert(u.tokens[name].text);
    }
    return names;
}

void
ruleUnorderedIter(const FileUnit &u, const SymbolTables &tables,
                  const RuleSink &sink)
{
    if (!inSimScope(u.relPath))
        return;
    std::set<std::string> local = collectUnorderedDecls(u);
    auto isUnorderedName = [&](const std::string &name) {
        return local.count(name) || tables.unorderedNames.count(name);
    };

    for (std::size_t i = 0; i < u.tokens.size(); ++i) {
        // Range-for whose range expression touches an unordered name.
        if (tokText(u, i) == "for" && tokText(u, i + 1) == "(") {
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close = u.tokens.size();
            for (std::size_t j = i + 1; j < u.tokens.size(); ++j) {
                const std::string &t = u.tokens[j].text;
                if (t == "(")
                    ++depth;
                else if (t == ")") {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (t == ":" && depth == 1 && colon == 0)
                    colon = j;
                else if (t == ";" && depth == 1)
                    break; // classic for; no range expression
            }
            if (colon != 0) {
                for (std::size_t j = colon + 1; j < close; ++j) {
                    if (isIdent(u, j) && isUnorderedName(u.tokens[j].text) &&
                        tokText(u, j - 1) != "." &&
                        tokText(u, j - 1) != "->") {
                        sink.report(
                            u.tokens[i].line, "unordered-iter",
                            "range-for over unordered container '" +
                                u.tokens[j].text +
                                "' leaks hash order into simulated "
                                "ticks; iterate a sorted copy or annotate "
                                "order-insensitive");
                        break;
                    }
                }
            }
        }
        // Explicit iterator walks: x.begin() / x.cbegin() / x.rbegin().
        const std::string &t = tokText(u, i);
        if ((t == "begin" || t == "cbegin" || t == "rbegin" ||
             t == "crbegin") &&
            tokText(u, i + 1) == "(" && i >= 2 &&
            (tokText(u, i - 1) == "." || tokText(u, i - 1) == "->") &&
            isIdent(u, i - 2) && isUnorderedName(u.tokens[i - 2].text)) {
            sink.report(u.tokens[i].line, "unordered-iter",
                        "iterating unordered container '" +
                            u.tokens[i - 2].text +
                            "' leaks hash order into simulated ticks; "
                            "iterate a sorted copy or annotate "
                            "order-insensitive");
        }
    }
}

// ---------------------------------------------------------------------------
// D4 ptr-key: no pointer ordering (container keys or comparators)
// ---------------------------------------------------------------------------

bool
isOrderedContainer(const std::string &t)
{
    return t == "map" || t == "set" || t == "multimap" || t == "multiset";
}

void
rulePtrKey(const FileUnit &u, const RuleSink &sink)
{
    for (std::size_t i = 0; i + 1 < u.tokens.size(); ++i) {
        if (!isIdent(u, i) || !isOrderedContainer(u.tokens[i].text) ||
            tokText(u, i + 1) != "<")
            continue;
        // Require std:: qualification so locals named `map` don't trip.
        if (!(i >= 2 && tokText(u, i - 1) == "::" &&
              tokText(u, i - 2) == "std"))
            continue;
        // Scan the first template argument (depth 1, up to ',' or '>').
        int depth = 0;
        for (std::size_t j = i + 1; j < u.tokens.size(); ++j) {
            const std::string &t = u.tokens[j].text;
            if (t == "<")
                ++depth;
            else if (t == ">") {
                if (--depth == 0)
                    break;
            } else if (t == "," && depth == 1)
                break;
            else if (t == "*" && depth == 1) {
                sink.report(u.tokens[j].line, "ptr-key",
                            "pointer key in ordered std::" +
                                u.tokens[i].text +
                                " orders by address, which varies "
                                "run-to-run; key on a stable id instead");
                break;
            } else if (t == ";" || t == "{")
                break;
        }
    }

    // Comparator lambdas ordering two pointer parameters: find lambdas
    // `[...](T *a, U *b ...) { ... a < b ... }`.
    for (std::size_t i = 0; i + 1 < u.tokens.size(); ++i) {
        if (tokText(u, i) != "]" || tokText(u, i + 1) != "(")
            continue;
        std::set<std::string> ptr_params;
        int depth = 0;
        std::size_t body = u.tokens.size();
        for (std::size_t j = i + 1; j < u.tokens.size(); ++j) {
            const std::string &t = u.tokens[j].text;
            if (t == "(")
                ++depth;
            else if (t == ")") {
                if (--depth == 0) {
                    body = j + 1;
                    break;
                }
            } else if (t == "*" && depth == 1 && isIdent(u, j + 1) &&
                       (tokText(u, j + 2) == "," ||
                        tokText(u, j + 2) == ")"))
                ptr_params.insert(u.tokens[j + 1].text);
        }
        if (ptr_params.size() < 2 || body >= u.tokens.size() ||
            tokText(u, body) != "{")
            continue;
        int braces = 0;
        for (std::size_t j = body; j < u.tokens.size(); ++j) {
            const std::string &t = u.tokens[j].text;
            if (t == "{")
                ++braces;
            else if (t == "}") {
                if (--braces == 0)
                    break;
            } else if ((t == "<" || t == ">") && isIdent(u, j - 1) &&
                       isIdent(u, j + 1) &&
                       ptr_params.count(u.tokens[j - 1].text) &&
                       ptr_params.count(u.tokens[j + 1].text)) {
                sink.report(u.tokens[j].line, "ptr-key",
                            "comparator orders pointers '" +
                                u.tokens[j - 1].text + "' and '" +
                                u.tokens[j + 1].text +
                                "' by address, which varies run-to-run; "
                                "compare a stable id instead");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// H1 include hygiene
// ---------------------------------------------------------------------------

std::string
baseName(const std::string &path)
{
    std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

void
ruleIncludeFirst(const FileUnit &u, const SymbolTables &tables,
                 const RuleSink &sink)
{
    if (u.isHeader || u.includes.empty())
        return;
    std::size_t dot = u.relPath.rfind('.');
    if (dot == std::string::npos)
        return;
    std::string sibling = u.relPath.substr(0, dot) + ".h";
    if (!tables.scannedPaths.count(sibling))
        return; // no companion header; nothing to be first
    const Include &first = u.includes.front();
    if (!first.quoted || baseName(first.target) != baseName(sibling))
        sink.report(first.line, "include-first",
                    "first include must be this file's own header '" +
                        baseName(sibling) +
                        "' so the header proves self-contained");
}

void
ruleNsHeader(const FileUnit &u, const RuleSink &sink)
{
    if (!u.isHeader)
        return;
    for (std::size_t i = 0; i + 1 < u.tokens.size(); ++i)
        if (tokText(u, i) == "using" && tokText(u, i + 1) == "namespace")
            sink.report(u.tokens[i].line, "ns-header",
                        "'using namespace' in a header leaks into every "
                        "includer; qualify names instead");
}

// ---------------------------------------------------------------------------
// H2 fp-accum: integral tick/byte totals in src/sim + src/net
// ---------------------------------------------------------------------------

bool
isFpType(const std::string &t)
{
    return t == "double" || t == "float";
}

/** Names declared float/double (scalars and vector/array elements). */
std::set<std::string>
collectFpDecls(const FileUnit &u)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < u.tokens.size(); ++i) {
        if (!isIdent(u, i))
            continue;
        const std::string &t = u.tokens[i].text;
        if (isFpType(t)) {
            std::size_t j = i + 1;
            if (tokText(u, j) == "*")
                continue; // pointer-to-double: pointee tracked elsewhere
            if (tokText(u, j) == "&")
                ++j;
            if (!isIdent(u, j))
                continue;
            const std::string &after = tokText(u, j + 1);
            // `double mean() const` is a return type, not a declaration.
            if (after == "=" || after == ";" || after == "{" ||
                after == "," || after == ")")
                names.insert(u.tokens[j].text);
        } else if ((t == "vector" || t == "array") &&
                   tokText(u, i + 1) == "<" &&
                   isFpType(tokText(u, i + 2))) {
            std::size_t after = skipTemplateArgs(u, i + 1);
            std::size_t name = declaredNameAfter(u, after);
            if (name < u.tokens.size())
                names.insert(u.tokens[name].text);
        }
    }
    return names;
}

void
ruleFpAccum(const FileUnit &u, const SymbolTables &tables,
            const RuleSink &sink)
{
    if (!inFpScope(u.relPath))
        return;
    std::set<std::string> local = collectFpDecls(u);
    auto isFpName = [&](const std::string &name) {
        return local.count(name) || tables.fpNames.count(name);
    };
    for (std::size_t i = 1; i < u.tokens.size(); ++i) {
        const std::string &t = u.tokens[i].text;
        if (t != "+=" && t != "-=")
            continue;
        std::size_t base = i - 1;
        if (tokText(u, base) == "]") { // walk back over a subscript
            int depth = 0;
            while (base > 0) {
                if (tokText(u, base) == "]")
                    ++depth;
                else if (tokText(u, base) == "[" && --depth == 0) {
                    --base;
                    break;
                }
                --base;
            }
        }
        if (isIdent(u, base) && isFpName(u.tokens[base].text))
            sink.report(u.tokens[i].line, "fp-accum",
                        "floating-point accumulation into '" +
                            u.tokens[base].text +
                            "' drifts with summation order; accumulate "
                            "integral ticks/bytes and convert at the edge");
    }
}

// ---------------------------------------------------------------------------
// H3 move-arg-read: no call both moves a name and reads it elsewhere
// ---------------------------------------------------------------------------

/**
 * For each token, the index of the innermost '(', '[' or '{' still open
 * around it (tokens.size() at top level), and for each opener the index
 * of its closer.
 */
struct Brackets
{
    std::vector<std::size_t> parent;
    std::vector<std::size_t> close;
};

Brackets
matchBrackets(const FileUnit &u)
{
    const std::size_t n = u.tokens.size();
    Brackets b{std::vector<std::size_t>(n, n), std::vector<std::size_t>(n, n)};
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &t = u.tokens[i].text;
        b.parent[i] = open.empty() ? n : open.back();
        if (u.tokens[i].kind != Token::Kind::kPunct)
            continue;
        if (t == "(" || t == "[" || t == "{") {
            open.push_back(i);
        } else if ((t == ")" || t == "]" || t == "}") && !open.empty()) {
            b.close[open.back()] = i;
            open.pop_back();
            b.parent[i] = open.empty() ? n : open.back();
        }
    }
    return b;
}

/** Whether the '(' at @p i opens a call's (or constructor's) arguments. */
bool
isCallParen(const FileUnit &u, std::size_t i)
{
    static const std::set<std::string> kNotCalls = {
        "if",     "while",    "for",           "switch",   "return",
        "sizeof", "catch",    "alignof",       "decltype", "noexcept",
        "throw",  "co_return", "static_assert", "alignas",
    };
    if (i == 0)
        return false;
    const std::string &prev = tokText(u, i - 1);
    if (isIdent(u, i - 1))
        return !kNotCalls.count(prev);
    return prev == ">" || prev == ")";
}

/**
 * A call that moves a name in one argument (`std::move(x)`, which also
 * covers an init-capture `x = std::move(x)`) and reads it in another:
 * C++ leaves the order of argument evaluation unspecified, so the read
 * may see the moved-from object (GCC builds a by-value closure argument
 * before it evaluates the arguments left of it). A move inside a lambda
 * body runs later, not at the call, and is not counted.
 */
void
ruleMoveArgRead(const FileUnit &u, const RuleSink &sink)
{
    const std::size_t n = u.tokens.size();
    Brackets b;
    for (std::size_t m = 0; m + 5 < n; ++m) {
        if (tokText(u, m) != "std" || tokText(u, m + 1) != "::" ||
            tokText(u, m + 2) != "move" || tokText(u, m + 3) != "(" ||
            !isIdent(u, m + 4) || tokText(u, m + 5) != ")")
            continue;
        if (b.parent.empty())
            b = matchBrackets(u);
        const std::string &name = u.tokens[m + 4].text;
        for (std::size_t p = b.parent[m]; p < n && tokText(u, p) != "{";
             p = b.parent[p]) {
            if (tokText(u, p) != "(" || !isCallParen(u, p) ||
                b.close[p] >= n)
                continue;
            // The argument holding the move: between the commas of this
            // call that enclose it.
            std::size_t arg = m;
            while (b.parent[arg] != p)
                arg = b.parent[arg];
            std::size_t lo = arg, hi = arg;
            while (lo > p + 1 &&
                   !(tokText(u, lo - 1) == "," && b.parent[lo - 1] == p))
                --lo;
            while (hi + 1 < b.close[p] &&
                   !(tokText(u, hi + 1) == "," && b.parent[hi + 1] == p))
                ++hi;
            for (std::size_t r = p + 1; r < b.close[p]; ++r) {
                if (r == lo) {
                    r = hi;
                    continue;
                }
                if (u.tokens[r].text != name || !isIdent(u, r))
                    continue;
                const std::string &before = tokText(u, r - 1);
                if (before == "." || before == "->" || before == "::" ||
                    tokText(u, r + 1) == "::")
                    continue;
                sink.report(u.tokens[r].line, "move-arg-read",
                            "'" + name +
                                "' is read in one argument of a call "
                                "and moved in another (line " +
                                std::to_string(u.tokens[m].line) +
                                "); argument evaluation order is "
                                "unspecified, so read it first");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

} // namespace

const std::vector<RuleInfo> &
allRules()
{
    static const std::vector<RuleInfo> kRules = {
        {"wall-clock",
         "no host-time reads; simulated time comes from Simulator::now()"},
        {"raw-rng",
         "all randomness flows through sim::Rng; telemetry is draw-free"},
        {"unordered-iter",
         "no hash-order iteration where order can reach simulated ticks"},
        {"ptr-key",
         "no pointer ordering (container keys or comparators)"},
        {"include-first",
         "a .cc file's first include is its own header"},
        {"ns-header", "no `using namespace` at header scope"},
        {"fp-accum",
         "tick/byte totals accumulate integrally in src/sim + src/net"},
        {"layering",
         "src/ include edges follow the declared module DAG; no cycles"},
        {"tick-unit",
         "scheduling/latency APIs take/return sim::Ticks, never raw "
         "sim::Tick"},
        {"bounded-memory",
         "growable container members under src/ carry a cap(<expr>) "
         "bound annotation"},
        {"callback-discipline",
         "event callbacks: no engine re-entry, no schedule fan-out or "
         "allocation in loops"},
        {"move-arg-read",
         "no call reads a name in one argument and moves it in another"},
        {"bad-suppression",
         "draid-lint markers are well-formed: allow(<rule>) -- <reason> "
         "or cap(<expr>)"},
    };
    return kRules;
}

const std::vector<std::string> &
allRuleIds()
{
    static const std::vector<std::string> kIds = [] {
        std::vector<std::string> ids;
        for (const RuleInfo &r : allRules())
            ids.push_back(r.id);
        return ids;
    }();
    return kIds;
}

void
collectHeaderSymbols(const FileUnit &unit, SymbolTables &tables)
{
    tables.scannedPaths.insert(unit.relPath);
    if (!unit.isHeader)
        return;
    // Members live in headers but are iterated from the sibling .cc, so
    // header-declared names go into the shared tables; locals stay
    // file-private (collected again per unit).
    for (const std::string &n : collectUnorderedDecls(unit))
        tables.unorderedNames.insert(n);
    if (inFpScope(unit.relPath))
        for (const std::string &n : collectFpDecls(unit))
            tables.fpNames.insert(n);
}

void
runRules(const FileUnit &unit, const SymbolTables &tables,
         std::vector<Diagnostic> &out)
{
    RuleSink sink{unit, out};
    ruleWallClock(unit, sink);
    ruleRawRng(unit, sink);
    ruleUnorderedIter(unit, tables, sink);
    rulePtrKey(unit, sink);
    ruleIncludeFirst(unit, tables, sink);
    ruleNsHeader(unit, sink);
    ruleFpAccum(unit, tables, sink);
    ruleMoveArgRead(unit, sink);
    runSemanticRules(unit, out);

    for (int line : unit.badSuppressionLines)
        out.push_back({unit.relPath, line, "bad-suppression",
                       "malformed draid-lint comment; expected "
                       "`draid-lint: allow(<rule>) -- <reason>` with a "
                       "non-empty reason, or `draid-lint: cap(<expr>)` "
                       "with a non-empty bound"});
    for (const Suppression &s : unit.suppressions)
        if (std::find(allRuleIds().begin(), allRuleIds().end(), s.rule) ==
            allRuleIds().end()) {
            std::string known;
            for (const std::string &id : allRuleIds())
                known += (known.empty() ? "" : " ") + id;
            out.push_back({unit.relPath, s.line, "bad-suppression",
                           "allow(" + s.rule +
                               ") names an unknown rule; known rules: " +
                               known});
        }
}

} // namespace draidlint
