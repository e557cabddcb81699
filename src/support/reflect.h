// Compile-time aggregate field counting — the drift guard for hand-written
// serialisers.
//
// A serialiser with an explicit field list silently rots when its struct
// grows a field: the new member simply never reaches disk. Pairing the
// field list with
//
//   static_assert(aggregate_field_count<Optimize_result> == 11,
//                 "update serialise_result / deserialise_result");
//
// turns that silent data loss into a compile error at the serialiser —
// whoever adds the field is pointed at exactly the code that must learn
// about it.
//
// The count is derived from aggregate initialisation: `T{a1, ..., aN}` is
// well-formed for an aggregate exactly when N does not exceed its number
// of direct members (probing with a type convertible to anything), so the
// largest accepted N *is* the member count. Works for plain aggregates —
// no base classes, no user-provided constructors — which is what every
// serialised struct here is.
#pragma once

#include <cstddef>

namespace xrl {

namespace detail {

/// Probe convertible to any member type. Only named in unevaluated
/// contexts, so the conversion operator needs no definition.
struct Any_field {
    template <class T>
    operator T() const noexcept;
};

template <class T, class... Probes>
constexpr std::size_t count_aggregate_fields()
{
    if constexpr (requires { T{Probes{}..., Any_field{}}; })
        return count_aggregate_fields<T, Probes..., Any_field>();
    else
        return sizeof...(Probes);
}

} // namespace detail

/// Number of direct members of aggregate `T`.
template <class T>
inline constexpr std::size_t aggregate_field_count = detail::count_aggregate_fields<T>();

} // namespace xrl
