// Rewrite-rule abstraction.
//
// A rule transforms a computation graph into a semantically equivalent one.
// At each optimisation step every rule is applied at every matching
// location, producing the candidate set the agent (or a baseline search)
// chooses from (§3.2: "a candidate will be generated by pattern-matching a
// rewrite rule to the target computation graph").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "rules/pattern.h"

namespace xrl {

/// Recycled output storage for apply_all_into. Candidate graphs are written
/// into slots whose nested buffers (node arrays, input lists, names) stay
/// allocated across calls, so a steady-state rule application copies into
/// warm memory instead of cloning the host from scratch. Protocol: take a
/// slot with next(), build the candidate in it, call keep() on success —
/// a slot not kept is handed out again by the following next().
class Graph_batch {
public:
    /// The current working slot (recycled storage; contents unspecified).
    Graph& next()
    {
        if (count_ == slots_.size()) slots_.emplace_back();
        return slots_[count_];
    }

    /// Commit the slot last returned by next().
    void keep() { ++count_; }

    /// Forget this call's results; slot storage survives for the next call.
    void reset() { count_ = 0; }

    std::size_t size() const { return count_; }
    Graph& operator[](std::size_t i) { return slots_[i]; }
    const Graph& operator[](std::size_t i) const { return slots_[i]; }

    /// Move the committed results out (ends the storage reuse).
    std::vector<Graph> take() &&
    {
        slots_.resize(count_);
        count_ = 0;
        return std::move(slots_);
    }

private:
    std::vector<Graph> slots_;
    std::size_t count_ = 0;
};

class Rewrite_rule {
public:
    virtual ~Rewrite_rule() = default;

    Rewrite_rule(const Rewrite_rule&) = delete;
    Rewrite_rule& operator=(const Rewrite_rule&) = delete;

    const std::string& name() const { return name_; }

    /// Apply the rule at every matching location of `graph`, committing each
    /// complete transformed graph (validated, shapes inferred) into `out`.
    /// At most `limit` candidates are produced. `out` is NOT reset first —
    /// the caller owns the batch lifecycle.
    ///
    /// Contract (Candidate_engine::rebuild relies on it to re-create a
    /// bespoke candidate from its slot index): the outputs are a
    /// deterministic function of `graph`, and they are prefix-stable under
    /// `limit` — the first k outputs at `limit = k` equal the first k at any
    /// larger limit.
    virtual void apply_all_into(const Graph& graph, std::size_t limit, Graph_batch& out) const = 0;

    /// Convenience wrapper: apply_all_into through a fresh batch. Callers on
    /// the candidate-generation hot path should hold a reusable Graph_batch
    /// and call apply_all_into directly.
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

    void apply_all_into(const Graph& graph, std::size_t limit, Graph_batch& out) const override;

    const Pattern& pattern() const { return pattern_; }

private:
    Pattern pattern_;
};

/// An owning collection of rules (the "activated" rule set of §3.2).
using Rule_set = std::vector<std::unique_ptr<Rewrite_rule>>;

} // namespace xrl
