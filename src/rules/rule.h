// Rewrite-rule abstraction.
//
// A rule transforms a computation graph into a semantically equivalent one.
// At each optimisation step every rule is applied at every matching
// location, producing the candidate set the agent (or a baseline search)
// chooses from (§3.2: "a candidate will be generated by pattern-matching a
// rewrite rule to the target computation graph").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "rules/pattern.h"

namespace xrl {

/// Where a rule applies on one host, as Rewrite_rule::find_sites lists it:
/// the match (pattern rules) or the host node ids the rule's build reads
/// (bespoke rules; unused entries are invalid_node). Ids, never pointers:
/// a site stays meaningful for any copy of the host it was found on, which
/// is what lets a search keep sites and rebuild candidates later.
struct Rewrite_site {
    Pattern_match match;                                      ///< Pattern rules.
    std::array<Node_id, 2> nodes{invalid_node, invalid_node}; ///< Bespoke rules.
};

/// A rewrite rule is two steps: list the sites where it applies, then
/// build one candidate per site. Splitting them lets a caller decide which
/// sites to build (caps, dedup) and build many sites in parallel, each
/// into its own output graph. A build is the rule's splice followed by the
/// shared epilogue, finalise_rewrite, so every rule reports its canonical
/// hash and Rewrite_delta the same way.
class Rewrite_rule {
public:
    virtual ~Rewrite_rule() = default;

    Rewrite_rule(const Rewrite_rule&) = delete;
    Rewrite_rule& operator=(const Rewrite_rule&) = delete;

    const std::string& name() const { return name_; }

    /// Append the rule's sites on `host` to `out`, in a deterministic order
    /// that depends on nothing but `host`. `index` must describe `host`.
    ///
    /// Caps: pattern rules stop at `limit` matches. Bespoke rules list
    /// every site whatever `limit` is — a site may still fail to build, and
    /// their cap counts successful builds, which only the caller of build()
    /// can count (apply_all below, or the candidate engine).
    virtual void find_sites(const Graph& host, const Host_index& index, std::size_t limit,
                            std::vector<Rewrite_site>& out) const = 0;

    /// The rule's own part of a build: edit `out`, an unedited overlay on
    /// `host.graph`, by appending nodes (Graph_overlay::add_node) and
    /// redirecting uses (Graph_overlay::replace_all_uses over the host
    /// index's use lists), recording each redirect in `rewired` (cleared
    /// first). A splice never copies the host, never edits a host node's
    /// kind, params or payload, and leaves shapes, dead nodes and checks to
    /// finalise_rewrite. Returns false when the site cannot be spliced.
    virtual bool splice(const Host_view& host, const Rewrite_site& site, Graph_overlay& out,
                        std::vector<Rewired_edge>& rewired) const = 0;

    /// Build the candidate for one of the host's sites into `out` (recycled
    /// storage), as an overlay on `host.graph`: splice(), then
    /// finalise_rewrite against the host's index and memo. The result is
    /// complete, validated, shapes inferred; Graph_overlay::materialise
    /// turns it into a Graph. Returns false when the rewrite is invalid at
    /// this site. Optionally reports the result's canonical hash, and the
    /// Rewrite_delta that patches a Host_index from the host to the result
    /// (and prices it from the host's cost terms). Pure: const, and safe to
    /// call concurrently on distinct outputs with one shared `host`.
    bool build(const Host_view& host, const Rewrite_site& site, Graph_overlay& out,
               std::uint64_t* canonical_hash_out = nullptr,
               Rewrite_delta* delta_out = nullptr) const;

    /// The reference loop over the two: build `graph`'s sites in order and
    /// materialise each success, until `limit` candidates were produced.
    /// Deterministic and prefix-stable under `limit` (the first k outputs
    /// at `limit = k` equal the first k at any larger limit).
    std::vector<Graph> apply_all(const Graph& graph, std::size_t limit = SIZE_MAX) const;

protected:
    explicit Rewrite_rule(std::string name) : name_(std::move(name)) {}

private:
    std::string name_;
};

/// A rule defined by a declarative source/target Pattern.
class Pattern_rule final : public Rewrite_rule {
public:
    explicit Pattern_rule(Pattern pattern);

    void find_sites(const Graph& host, const Host_index& index, std::size_t limit,
                    std::vector<Rewrite_site>& out) const override;
    bool splice(const Host_view& host, const Rewrite_site& site, Graph_overlay& out,
                std::vector<Rewired_edge>& rewired) const override;

    const Pattern& pattern() const { return pattern_; }

private:
    Pattern pattern_;
};

/// An owning collection of rules (the "activated" rule set of §3.2).
using Rule_set = std::vector<std::unique_ptr<Rewrite_rule>>;

} // namespace xrl
