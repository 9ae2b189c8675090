/**
 * @file
 * Repo-wide include graph and the declared layering DAG (DESIGN.md §6).
 *
 * Modules are the second path component under src/ (src/sim -> "sim").
 * The DAG below is the architecture contract of the simulator:
 *
 *     sim, ec                      (foundation: no deps)
 *       ^- proto, telemetry        (telemetry is observe-only: sim types
 *       |                           and recorded events, never the engine
 *       |                           internals of upper layers)
 *       ^- net -> blockdev -> nvme (device stack)
 *       ^- raid, workload          (mid layers)
 *       ^- cluster                 (testbed wiring)
 *       ^- core, baselines, app    (protocol implementations)
 *       ^- campaign                (fault campaigns drive everything)
 *
 * One carve-out: the NVMe-oF shims (src/blockdev/nvmf_*.{h,cc}) bridge
 * the device abstraction onto the cluster fabric and may additionally
 * see 'cluster' and the 'sim' engine it runs on.
 *
 * The graph also refuses include cycles among src/ headers — a cycle is
 * a layering violation no DAG row can describe.
 */

#ifndef DRAID_TOOLS_LINT_GRAPH_H
#define DRAID_TOOLS_LINT_GRAPH_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace draidlint {

/** Module name of a repo-relative path ("" when not under src/). */
std::string moduleOf(const std::string &rel_path);

/** Module name of a quoted include target ("" when not a src module). */
std::string includeTargetModule(const std::string &target);

/** The declared DAG: module -> modules it may include (self implied). */
const std::map<std::string, std::set<std::string>> &allowedModuleDeps();

/** The nvmf_* bridge files in src/blockdev also see cluster and sim. */
bool isNvmfBridge(const std::string &rel_path);

/** Comma-separated allowed list for a module, for diagnostics. */
std::string allowedDepsFor(const std::string &rel_path);

/**
 * Repo-wide quoted-include graph over the scanned units. Edges resolve
 * an include target "m/file.h" to "src/m/file.h" when m is a declared
 * module; everything else (system headers, test fixtures) is ignored.
 */
class IncludeGraph
{
  public:
    void addFile(const FileUnit &unit);

    /**
     * Depth-first cycle scan over src/ headers. Each cycle reports once,
     * at the include closing it, as a 'layering' diagnostic listing the
     * full path (a -> b -> ... -> a).
     */
    void checkCycles(std::vector<Diagnostic> &out) const;

  private:
    struct Edge
    {
        std::string to;
        int line;
    };
    std::map<std::string, std::vector<Edge>> adj_;
};

} // namespace draidlint

#endif // DRAID_TOOLS_LINT_GRAPH_H
