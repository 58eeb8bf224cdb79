#include "obs/metric_sink.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

#include "util/json.hpp"

namespace psw::obs {

namespace {

// The one quantile set both formats report.
struct Quantile {
  double q;
  const char* json_key;
  const char* label;
};
constexpr Quantile kQuantiles[] = {
    {0.50, "p50_ms", "0.5"}, {0.95, "p95_ms", "0.95"}, {0.99, "p99_ms", "0.99"}};

// Whole numbers (byte counts, queue depths) print exactly, not as %g.
bool whole(double v) { return std::nearbyint(v) == v && std::fabs(v) < 9.0e15; }

class JsonSink final : public MetricSink {
 public:
  JsonSink() { w_.begin_object(); }
  std::string finish() {
    end();
    return w_.str();
  }

  void counter(const Row& r, uint64_t v) override { slot(r).value(v); }
  void gauge(const Row& r, double v) override {
    if (whole(v)) {
      slot(r).value(static_cast<int64_t>(v));
    } else {
      slot(r).value(v);
    }
  }
  void flag(const Row& r, bool v) override { slot(r).value(v); }
  void state(const Row& r, const std::string& v) override { slot(r).value(v); }
  void summary(const Row& r, const LatencyHistogram& h) override {
    slot(r).begin_object().field("count", h.count()).field("mean_ms", h.mean_ms());
    for (const Quantile& q : kQuantiles) w_.field(q.json_key, h.quantile_ms(q.q));
    w_.field("max_ms", h.max_ms()).end_object();
  }

  void begin(const char* key) override { close_group().key(key).begin_object(); }
  void end() override { close_group().end_object(); }
  void begin_list(const char* key, const char*) override {
    close_group().key(key).begin_array();
  }
  void begin_item(const std::string& id) override { w_.begin_object().field("id", id); }
  void end_item() override { end(); }
  void end_list() override { w_.end_array(); }
  void document(const char* key, const std::string& json) override {
    close_group().key(key).raw(json.empty() ? "null" : json);
  }

 private:
  // Positions the writer at the row's value, inside its group's object.
  JsonWriter& slot(const Row& r) {
    if (group_ != r.group) {
      close_group();
      if (*r.group != '\0') w_.key(r.group).begin_object();
      group_ = r.group;
    }
    return w_.key(r.key);
  }
  JsonWriter& close_group() {
    if (!group_.empty()) w_.end_object();
    group_.clear();
    return w_;
  }

  JsonWriter w_;
  std::string group_;  // open group object ("" = none)
};

class PromText final : public MetricSink {
 public:
  std::string finish() const {
    std::string out;
    for (const Family& f : families_) out += f.text;
    return out;
  }

  void counter(const Row& r, uint64_t v) override {
    sample(family(r, "counter", "_total"), "", "", std::to_string(v));
  }
  void gauge(const Row& r, double v) override { sample(family(r, "gauge"), "", "", num(v)); }
  void flag(const Row& r, bool v) override { gauge(r, v ? 1.0 : 0.0); }
  void state(const Row& r, const std::string& v) override {
    sample(family(r, "gauge"), "", label(r.key, v), "1");
  }
  void summary(const Row& r, const LatencyHistogram& h) override {
    Family& f = family(r, "summary");
    for (const Quantile& q : kQuantiles) {
      sample(f, "", label("quantile", q.label), num(h.quantile_ms(q.q)));
    }
    sample(f, "_sum", "", num(h.sum_ms()));
    sample(f, "_count", "", std::to_string(h.count()));
  }

  void begin(const char* key) override { path_.push_back(key); }
  void end() override { path_.pop_back(); }
  void begin_list(const char* key, const char* label) override {
    begin(key);
    list_label_ = label;
  }
  void begin_item(const std::string& id) override { item_label_ = label(list_label_, id); }
  void end_item() override { item_label_.clear(); }
  void end_list() override { end(); }
  void document(const char*, const std::string&) override {}

 private:
  // One metric family: its samples sit together under one header, even
  // when they arrive interleaved (per-shard rows).
  struct Family {
    std::string name;
    std::string text;
  };

  Family& family(const Row& r, const char* type, const char* suffix = "") {
    std::string name = "psw";
    for (const char* p : path_) name += std::string("_") + p;
    if (*r.group != '\0') name += std::string("_") + r.group;
    name += std::string("_") + r.key + suffix;
    for (Family& f : families_) {
      if (f.name == name) return f;
    }
    families_.push_back(
        {name, "# HELP " + name + " " + r.help + "\n# TYPE " + name + " " + type + "\n"});
    return families_.back();
  }

  void sample(Family& f, const char* suffix, const std::string& extra,
              const std::string& value) {
    std::string labels = item_label_;
    if (!extra.empty()) labels += (labels.empty() ? "" : ",") + extra;
    f.text += f.name + suffix + (labels.empty() ? "" : "{" + labels + "}") + " " + value + "\n";
  }

  static std::string label(const std::string& name, const std::string& value) {
    std::string out = name + "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"' || c == '\n') out += '\\';
      out += c == '\n' ? 'n' : c;
    }
    return out + "\"";
  }

  static std::string num(double v) {
    if (whole(v)) return std::to_string(static_cast<int64_t>(v));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  std::vector<Family> families_;  // in first-seen order
  std::vector<const char*> path_;  // open sections and lists
  std::string list_label_;
  std::string item_label_;  // label="id" of the open list item
};

}  // namespace

std::string render_json(Describe describe) {
  JsonSink sink;
  describe(sink);
  return sink.finish();
}

std::string render_prometheus(Describe describe) {
  PromText sink;
  describe(sink);
  return sink.finish();
}

void describe_pool(MetricSink& sink, const char* group, const PoolStats& pool) {
  sink.counter({group, "acquires", "Buffers acquired"}, pool.acquires);
  sink.counter({group, "hits", "Acquires served from a retained buffer"}, pool.hits);
  sink.counter({group, "misses", "Acquires that allocated fresh storage"}, pool.misses);
  sink.counter({group, "releases", "Buffers given back"}, pool.releases);
  sink.counter({group, "discards", "Releases dropped instead of retained"}, pool.discards);
  sink.gauge({group, "outstanding", "Buffers acquired, not yet released"}, pool.outstanding);
  sink.gauge({group, "retained", "Buffers sitting in freelists"}, pool.retained);
  sink.gauge({group, "retained_bytes", "Capacity held by retained buffers"}, pool.retained_bytes);
  sink.gauge({group, "hit_rate", "Hits per acquire"}, pool.hit_rate());
}

}  // namespace psw::obs
