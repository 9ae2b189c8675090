#include "graph.h"

#include <algorithm>

namespace draidlint {

namespace {

/** "src/<module>/..." -> "<module>"; "" otherwise. */
std::string
secondComponent(const std::string &rel_path)
{
    const std::string prefix = "src/";
    if (rel_path.compare(0, prefix.size(), prefix) != 0)
        return "";
    std::size_t slash = rel_path.find('/', prefix.size());
    if (slash == std::string::npos)
        return "";
    return rel_path.substr(prefix.size(), slash - prefix.size());
}

} // namespace

const std::map<std::string, std::set<std::string>> &
allowedModuleDeps()
{
    static const std::map<std::string, std::set<std::string>> kDeps = {
        {"ec", {}},
        {"sim", {}},
        {"proto", {"sim"}},
        {"telemetry", {"sim"}}, // observe-only: types + recorded events
        {"net", {"sim", "ec", "proto", "telemetry"}},
        {"blockdev", {"ec", "net", "telemetry"}},
        {"nvme", {"sim", "blockdev", "telemetry"}},
        {"raid", {"sim", "telemetry"}},
        {"workload", {"sim", "blockdev", "telemetry"}},
        {"cluster", {"sim", "net", "nvme", "telemetry"}},
        {"core",
         {"sim", "ec", "net", "proto", "raid", "blockdev", "cluster",
          "telemetry"}},
        {"baselines",
         {"sim", "ec", "net", "raid", "blockdev", "cluster", "telemetry"}},
        {"app", {"sim", "ec", "blockdev"}},
        {"campaign", {"sim", "cluster", "core", "workload", "telemetry"}},
    };
    return kDeps;
}

std::string
moduleOf(const std::string &rel_path)
{
    const std::string m = secondComponent(rel_path);
    return allowedModuleDeps().count(m) ? m : "";
}

std::string
includeTargetModule(const std::string &target)
{
    std::size_t slash = target.find('/');
    if (slash == std::string::npos)
        return "";
    const std::string m = target.substr(0, slash);
    return allowedModuleDeps().count(m) ? m : "";
}

bool
isNvmfBridge(const std::string &rel_path)
{
    const std::string prefix = "src/blockdev/nvmf_";
    return rel_path.compare(0, prefix.size(), prefix) == 0;
}

std::string
allowedDepsFor(const std::string &rel_path)
{
    const std::string m = moduleOf(rel_path);
    auto it = allowedModuleDeps().find(m);
    if (it == allowedModuleDeps().end())
        return "";
    std::set<std::string> allowed = it->second;
    if (isNvmfBridge(rel_path))
        allowed.insert({"cluster", "sim"});
    std::string joined;
    for (const std::string &a : allowed)
        joined += (joined.empty() ? "" : ", ") + a;
    return joined.empty() ? "(none)" : joined;
}

void
IncludeGraph::addFile(const FileUnit &unit)
{
    if (moduleOf(unit.relPath).empty())
        return;
    auto &edges = adj_[unit.relPath];
    for (const Include &inc : unit.includes) {
        if (!inc.quoted || includeTargetModule(inc.target).empty())
            continue;
        edges.push_back({"src/" + inc.target, inc.line});
    }
}

void
IncludeGraph::checkCycles(std::vector<Diagnostic> &out) const
{
    // Iterative DFS with colors; each back edge closes exactly one cycle
    // and the path on the stack names it.
    enum class Color
    {
        kWhite,
        kGray,
        kBlack,
    };
    std::map<std::string, Color> color;
    for (const auto &[node, edges] : adj_)
        color[node] = Color::kWhite;

    struct Frame
    {
        std::string node;
        std::size_t next = 0;
    };

    for (const auto &[start, start_edges] : adj_) {
        if (color[start] != Color::kWhite)
            continue;
        std::vector<Frame> stack{{start, 0}};
        color[start] = Color::kGray;
        while (!stack.empty()) {
            Frame &frame = stack.back();
            static const std::vector<Edge> kNoEdges;
            auto it = adj_.find(frame.node);
            const std::vector<Edge> &edges =
                it != adj_.end() ? it->second : kNoEdges;
            if (frame.next >= edges.size()) {
                color[frame.node] = Color::kBlack;
                stack.pop_back();
                continue;
            }
            const Edge &e = edges[frame.next++];
            auto c = color.find(e.to);
            if (c == color.end() || c->second == Color::kBlack)
                continue; // not scanned / already proven acyclic
            if (c->second == Color::kGray) {
                // Name the cycle from the stack entry for e.to onward.
                std::string path;
                bool in_cycle = false;
                for (const Frame &f : stack) {
                    if (f.node == e.to)
                        in_cycle = true;
                    if (in_cycle)
                        path += f.node + " -> ";
                }
                path += e.to;
                out.push_back({frame.node, e.line, "layering",
                               "include cycle: " + path});
                continue;
            }
            color[e.to] = Color::kGray;
            stack.push_back({e.to, 0});
        }
    }
}

} // namespace draidlint
