#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case kClientCall: return "serve.client.call";
    case kReplay: return "serve.server.replay";
    case kDecodeRequest: return "serve.protocol.decode_request";
    case kParse: return "plan.script.parse";
    case kCacheGet: return "plan.rep_cache.get";
    case kRunQueryDrain: return "serve.server.run_query_drain";
    case kDrain: return "plan.answer_rep.drain";
    case kCopy: return "serve.server.copy";
    case kEncode: return "serve.protocol.encode";
    case kDecodeResponse: return "serve.protocol.decode_response";
    case kApplyDelta: return "plan.rep_cache.apply_delta";
    case kNumSpanNames: break;
  }
  return "?";
}

std::vector<RequestTimes> SummarizeRequests(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  // Children of one parent never overlap (the replay is sequential), so
  // the part of a span its children cover is the sum of their durations.
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent != kNoParent)
      child_us[s.parent] += (double)(s.end_ns - s.start_ns) / 1e3;
  std::vector<RequestTimes> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (out.empty() || out.back().request != s.request) {
      out.emplace_back();
      out.back().request = s.request;
    }
    RequestTimes& r = out.back();
    const double us = (double)(s.end_ns - s.start_ns) / 1e3;
    r.present[s.name] = true;
    r.total_us[s.name] += us;
    r.self_us[s.name] += us - child_us[i];
    if (s.name == kDrain) r.max_drain_us = std::max(r.max_drain_us, us);
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\trequest\tname\tparent\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(f, "%zu\t%llu\t%s\t%lld\t%lld\t%lld\n", t,
                   (unsigned long long)s.request, SpanNameText(s.name),
                   s.parent == kNoParent ? -1LL : (long long)s.parent,
                   (long long)s.start_ns, (long long)s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = (size_t)std::ceil(p / 100.0 * (double)v.size());
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

}  // namespace perfbench
