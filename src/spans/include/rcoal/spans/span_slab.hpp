/**
 * @file
 * SpanSlab: the span collector's fixed-capacity, allocation-free ring
 * of SpanRecords — the same overwrite-oldest ring as trace::TraceSink
 * (common::OverwriteRing). Its snapshot() is chronological regardless
 * of wrap, so two runs that appended the same sequence produce
 * byte-identical snapshots.
 */

#ifndef RCOAL_SPANS_SPAN_SLAB_HPP
#define RCOAL_SPANS_SPAN_SLAB_HPP

#include "rcoal/common/overwrite_ring.hpp"
#include "rcoal/spans/span.hpp"

namespace rcoal::spans {

using SpanSlab = common::OverwriteRing<SpanRecord>;

} // namespace rcoal::spans

#endif // RCOAL_SPANS_SPAN_SLAB_HPP
