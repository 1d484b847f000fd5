// Include-graph architecture linter (DESIGN.md §14). The src/ tree is a
// ranked layer DAG — a module may include only strictly lower-ranked modules
// (plus itself) — and this analyzer parses every `#include "..."` edge and
// fails repo_lint when the graph drifts:
//
//   layering/unknown-module    a src/ file outside the declared module list —
//                              new modules must be added to the DAG (with a
//                              rank) before code lands there;
//   layering/upward-include    an include whose target module ranks at or
//                              above the including module (same-rank
//                              cross-module edges are banned too: merge the
//                              modules or split an interface downward);
//   layering/include-cycle     a cycle among src/ headers (DFS back edge) —
//                              cycles make ranks meaningless and break
//                              incremental builds;
//   layering/obs-facade        serve/ reaching obs/ through anything but
//                              obs/facade.h — the facade is serving's whole
//                              observability surface, so the hot path can be
//                              audited in one place;
//   layering/self-include-first a .cc whose first include is not its own
//                              header — the convention that proves every
//                              header is self-contained;
//   layering/test-only-header  a src/ header that no file outside tests/
//                              includes (its own .cc does not count) — code
//                              only tests run is dead code, deleted rather
//                              than kept; the few headers kept on purpose
//                              are listed in repo_lint.cc.
//
// The declared ranks live in layering.cc; `lint:allow(<rule>)` suppressions
// work as everywhere else but first-party src/ code is expected to carry none.
#ifndef URCL_TOOLS_LINT_LAYERING_H_
#define URCL_TOOLS_LINT_LAYERING_H_

#include <vector>

#include "tools/lint/repo_lint.h"
#include "tools/lint/source.h"

namespace urcl {
namespace lint {

// Checks the layer contracts over `files`, the src/ tree as repo-relative
// SourceFiles ("src/<module>/<file>"). Order of findings is deterministic
// (path, then line).
std::vector<Finding> CheckLayering(const std::vector<SourceFile>& files);

// Finds the src/ headers that only tests/ include. `files` is every scanned
// file (src/, tests/, bench/, examples/, tools/) as repo-relative
// SourceFiles; a header's own .cc is not a caller, and headers named in
// `allowed` ("src/<module>/<file>.h") are exempt. One whole-file finding per
// header, in path order.
std::vector<Finding> CheckTestOnlyHeaders(const std::vector<SourceFile>& files,
                                          const std::vector<std::string>& allowed);

// Rank of `module` in the declared DAG, or -1 when the module is unknown.
// Exposed so tests and docs tooling can assert the table itself.
int LayerRank(const std::string& module);

}  // namespace lint
}  // namespace urcl

#endif  // URCL_TOOLS_LINT_LAYERING_H_
