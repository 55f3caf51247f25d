#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "util/prng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL ^ (stream + 1);
  util::splitmix64(state);
  return util::splitmix64(state);
}

// --- Tracer -----------------------------------------------------------------

namespace {
thread_local std::vector<SpanRecord>* t_buffer = nullptr;
thread_local std::uint64_t t_current_span = 0;
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::vector<SpanRecord>& Tracer::local_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<SpanRecord>>();
    buffer->reserve(4096);
    std::lock_guard<std::mutex> lock(mutex_);
    t_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *t_buffer;
}

void Tracer::append(const SpanRecord& span) { local_buffer().push_back(span); }

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request, char kind) {
  if (!enabled()) return;
  SpanRecord span;
  span.id = next_id();
  span.parent = t_current_span;
  span.request = request;
  span.name = name;
  span.kind = kind;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  append(span);
}

std::vector<double> Tracer::durations_us(const std::string& name,
                                         char kind) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : *buffer) {
      if (name != span.name) continue;
      if (kind != 0 && span.kind != kind) continue;
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->size();
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id,parent,request,kind,name,start_ns,end_ns\n";
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : *buffer) {
      out << span.id << ',' << span.parent << ',' << span.request << ','
          << span.kind << ',' << span.name << ',' << span.start_ns << ','
          << span.end_ns << '\n';
    }
  }
}

Span::Span(const char* name, std::uint64_t request, char kind) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.id = tracer.next_id();
  record_.parent = t_current_span;
  record_.request = request;
  record_.name = name;
  record_.kind = kind;
  saved_parent_ = t_current_span;
  t_current_span = record_.id;
  record_.start_ns = now_ns();
}

void Span::end() {
  if (!active_) return;
  active_ = false;
  record_.end_ns = now_ns();
  t_current_span = saved_parent_;
  Tracer::get().append(record_);
}

// --- Statistics ---------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- Report -------------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& entry : metrics) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::violation(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex);
  correct = false;
  if (violations.size() < 20) violations.push_back(message);
}

void Report::phase(const std::string& name, std::uint64_t sent,
                   std::uint64_t succeeded, std::uint64_t failed_ops) {
  attempted += sent;
  failed += failed_ops;
  util::Json entry = util::Json::object();
  entry.set("sent", sent);
  entry.set("succeeded", succeeded);
  entry.set("failed", failed_ops);
  if (!info.contains("phases")) info.set("phases", util::Json::object());
  util::Json phases = info["phases"];
  phases.set(name, entry);
  info.set("phases", phases);
}

// --- Checks -------------------------------------------------------------------

std::string check_schedule(const model::Instance& instance,
                           const api::SolveResult& result) {
  if (!result.ok()) {
    return std::string("status ") + api::to_string(result.status) +
           (result.error.empty() ? "" : ": " + result.error);
  }
  if (result.schedule.num_jobs() != instance.num_jobs()) {
    return "schedule covers " + std::to_string(result.schedule.num_jobs()) +
           " jobs, instance has " + std::to_string(instance.num_jobs());
  }
  const model::ValidationResult validation =
      model::validate(instance, result.schedule);
  if (!validation.ok()) return "invalid schedule: " + validation.message;
  const double recomputed = result.schedule.makespan(instance);
  if (std::abs(recomputed - result.makespan) >
      1e-9 * std::max(1.0, std::abs(recomputed))) {
    return "reported makespan " + std::to_string(result.makespan) +
           " != recomputed " + std::to_string(recomputed);
  }
  return {};
}

void corrupt(model::Schedule& schedule) {
  if (schedule.num_jobs() > 0) schedule.assign(0, model::kUnassigned);
}

}  // namespace perfbench
