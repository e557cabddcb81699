#include "rules/rule.h"

namespace xrl {

bool Rewrite_rule::build(const Host_view& host, const Rewrite_site& site, Graph_overlay& out,
                         std::uint64_t* canonical_hash_out, Rewrite_delta* delta_out) const
{
    // Per-thread: builds of one host run concurrently on the pool.
    thread_local std::vector<Rewired_edge> rewired;
    if (delta_out != nullptr) delta_out->valid = false;
    out.reset(host.graph);
    return splice(host, site, out, rewired) &&
           finalise_rewrite(out, host, rewired, canonical_hash_out, delta_out);
}

std::vector<Graph> Rewrite_rule::apply_all(const Graph& graph, std::size_t limit) const
{
    const Host_index index(graph);
    const Host_memo memo(graph);
    std::vector<Rewrite_site> sites;
    find_sites(graph, index, limit, sites);
    Graph_overlay candidate;
    std::vector<Graph> out;
    for (const Rewrite_site& site : sites) {
        if (out.size() >= limit) break;
        if (build({graph, index, memo}, site, candidate)) out.push_back(candidate);
    }
    return out;
}

Pattern_rule::Pattern_rule(Pattern pattern) : Rewrite_rule(pattern.name), pattern_(std::move(pattern))
{
    pattern_.finalise();
}

void Pattern_rule::find_sites(const Graph& host, const Host_index& index, std::size_t limit,
                              std::vector<Rewrite_site>& out) const
{
    for (Pattern_match& match : find_matches(host, index, pattern_, limit))
        out.push_back({std::move(match)});
}

bool Pattern_rule::splice(const Host_view& host, const Rewrite_site& site, Graph_overlay& out,
                          std::vector<Rewired_edge>& rewired) const
{
    return splice_match(out, host, pattern_, site.match, rewired);
}

} // namespace xrl
