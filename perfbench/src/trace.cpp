#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::string Span::layer() const {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  Span span;
  span.name = name;
  span.request = tracer_->request_;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(static_cast<std::int32_t>(index_));
  // Last, so the bookkeeping above is not charged to the span.
  tracer_->spans_[index_].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::vector<Span> merge(const std::vector<const Tracer*>& tracers) {
  std::vector<Span> out;
  for (const Tracer* t : tracers) {
    const auto offset = static_cast<std::int32_t>(out.size());
    for (Span s : t->spans()) {
      if (s.parent >= 0) s.parent += offset;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  return self;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"request\": %u, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.request, s.name, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
