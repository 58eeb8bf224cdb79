// Network frame-delivery tests: wire protocol round-trips and typed
// rejection of malformed/truncated/corrupt input (including a deterministic
// fuzz pass — decoding is total, it never crashes or hangs), frame-codec
// bit-exactness over random images and delta sessions, and loopback
// end-to-end checks that frames served over a real socket are bit-identical
// to direct renderer output, that streaming backpressure drops oldest and
// counts, and that idle connections and protocol violations are handled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <sys/socket.h>

#include <thread>
#include <utility>
#include <vector>

#include "core/classify.hpp"
#include "net/client.hpp"
#include "net/frame_codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "parallel/new_renderer.hpp"
#include "phantom/phantom.hpp"
#include "serve/service.hpp"
#include "tools/alloc_probe.hpp"
#include "util/buffer_pool.hpp"
#include "util/json_parse.hpp"
#include "util/timer.hpp"

namespace psw::net {
namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

uint64_t pixel_hash(const ImageU8& img) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto* bytes = reinterpret_cast<const uint8_t*>(img.data());
  for (size_t i = 0; i < img.pixel_count() * sizeof(Pixel8); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h ^ (static_cast<uint64_t>(img.width()) << 32) ^
         static_cast<uint64_t>(img.height());
}

bool images_equal(const ImageU8& a, const ImageU8& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  return std::memcmp(a.data(), b.data(), a.pixel_count() * sizeof(Pixel8)) == 0;
}

ImageU8 random_image(std::mt19937& rng, int w, int h, bool runny) {
  ImageU8 img(w, h);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> run_len(1, 24);
  for (int y = 0; y < h; ++y) {
    int x = 0;
    while (x < w) {
      Pixel8 px{static_cast<uint8_t>(byte(rng)), static_cast<uint8_t>(byte(rng)),
                static_cast<uint8_t>(byte(rng)), static_cast<uint8_t>(byte(rng))};
      const int len = runny ? std::min(run_len(rng), w - x) : 1;
      for (int i = 0; i < len; ++i) img.at(x++, y) = px;
    }
  }
  return img;
}

// --- wire protocol --------------------------------------------------------

TEST(Wire, HeaderAndPayloadRoundTrip) {
  HelloMsg hello;
  hello.name = "test-client";
  std::vector<uint8_t> payload;
  hello.encode(&payload);
  std::vector<uint8_t> wire;
  encode_message(MsgType::kHello, payload, &wire);
  ASSERT_EQ(wire.size(), kHeaderSize + payload.size());

  WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(decode_message(wire.data(), wire.size(), &msg, &consumed),
            WireStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(msg.type, MsgType::kHello);
  HelloMsg back;
  ASSERT_TRUE(HelloMsg::decode(msg.payload, &back));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.name, "test-client");
}

TEST(Wire, RenderRequestRoundTripIsBitExact) {
  RenderRequestMsg req;
  req.request_id = 0x1122334455667788ull;
  req.session_id = 42;
  req.volume.kind = "ct";
  req.volume.nx = 48;
  req.volume.ny = 56;
  req.volume.nz = 64;
  req.volume.tf_preset = 1;
  req.volume.seed = 7;
  req.camera = Camera::orbit({48, 56, 64}, 0.7321, 0.35);
  req.deadline_ms = 12.5;

  std::vector<uint8_t> payload;
  req.encode(&payload);
  RenderRequestMsg back;
  ASSERT_TRUE(RenderRequestMsg::decode(payload, &back));
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.session_id, req.session_id);
  EXPECT_EQ(back.volume.canonical(), req.volume.canonical());
  EXPECT_EQ(back.camera.image_width, req.camera.image_width);
  EXPECT_EQ(back.camera.image_height, req.camera.image_height);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      // Bit-exact, not approximately-equal: served-frame identity depends
      // on the view matrix surviving the wire unchanged.
      EXPECT_EQ(back.camera.view.at(r, c), req.camera.view.at(r, c));
    }
  }
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
}

TEST(Wire, AllPayloadTypesRoundTrip) {
  {
    StreamRequestMsg m;
    m.stream_id = 3;
    m.session_id = 9;
    m.start_yaw = 0.25;
    m.pitch = -0.1;
    m.step_deg = 1.5;
    m.frames = 77;
    std::vector<uint8_t> p;
    m.encode(&p);
    StreamRequestMsg b;
    ASSERT_TRUE(StreamRequestMsg::decode(p, &b));
    EXPECT_EQ(b.stream_id, m.stream_id);
    EXPECT_EQ(b.start_yaw, m.start_yaw);
    EXPECT_EQ(b.pitch, m.pitch);
    EXPECT_EQ(b.step_deg, m.step_deg);
    EXPECT_EQ(b.frames, m.frames);
  }
  {
    FrameMsg m;
    m.stream_id = 5;
    m.seq = 17;
    m.dropped_before = 2;
    m.render_ms = 3.25;
    m.total_ms = 9.5;
    m.cache_hit = 1;
    m.encoded = {1, 2, 3, 4, 5};
    std::vector<uint8_t> p;
    m.encode(&p);
    FrameMsg b;
    ASSERT_TRUE(FrameMsg::decode(p, &b));
    EXPECT_EQ(b.seq, m.seq);
    EXPECT_EQ(b.dropped_before, m.dropped_before);
    EXPECT_EQ(b.encoded, m.encoded);
  }
  {
    StreamEndMsg m;
    m.stream_id = 5;
    m.frames_sent = 28;
    m.frames_dropped = 2;
    std::vector<uint8_t> p;
    m.encode(&p);
    StreamEndMsg b;
    ASSERT_TRUE(StreamEndMsg::decode(p, &b));
    EXPECT_EQ(b.frames_sent, m.frames_sent);
    EXPECT_EQ(b.frames_dropped, m.frames_dropped);
  }
  {
    ErrorMsg m;
    m.request_id = 11;
    m.status = 2;
    m.message = "queue full";
    std::vector<uint8_t> p;
    m.encode(&p);
    ErrorMsg b;
    ASSERT_TRUE(ErrorMsg::decode(p, &b));
    EXPECT_EQ(b.request_id, m.request_id);
    EXPECT_EQ(b.status, m.status);
    EXPECT_EQ(b.message, m.message);
  }
  {
    MetricsReplyMsg m;
    m.json = "{\"ok\":true}";
    std::vector<uint8_t> p;
    m.encode(&p);
    MetricsReplyMsg b;
    ASSERT_TRUE(MetricsReplyMsg::decode(p, &b));
    EXPECT_EQ(b.json, m.json);
  }
}

// encoded_size() lets callers reserve pooled payloads exactly; an off-by-one
// here silently turns the zero-copy path back into reallocating appends, so
// every message type's prediction is checked against its actual bytes.
TEST(Wire, EncodedSizeIsExactForEveryType) {
  const auto check = [](const auto& msg) {
    std::vector<uint8_t> p;
    p.reserve(msg.encoded_size());
    const uint8_t* storage = p.data();
    msg.encode(&p);
    EXPECT_EQ(p.size(), msg.encoded_size());
    EXPECT_EQ(p.data(), storage);  // the exact reserve was sufficient
  };
  HelloMsg hello;
  hello.name = "sizer-client";
  check(hello);
  RenderRequestMsg req;
  req.volume.kind = "ct";
  req.camera = Camera::orbit({32, 40, 48}, 0.5, 0.2);
  req.deadline_ms = 4.0;
  check(req);
  StreamRequestMsg sreq;
  sreq.volume.kind = "mri";
  sreq.frames = 12;
  check(sreq);
  FrameMsg frame;
  frame.encoded = {9, 8, 7, 6, 5, 4, 3};
  check(frame);
  check(StreamEndMsg{});
  ErrorMsg err;
  err.message = "queue full";
  check(err);
  MetricsReplyMsg metrics;
  metrics.json = "{\"frames\":1}";
  check(metrics);
}

TEST(Wire, EncodeHeaderMatchesEncodeMessagePrefix) {
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  for (const size_t len : {size_t{0}, size_t{1}, size_t{997}}) {
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<uint8_t>(byte(rng));
    std::vector<uint8_t> whole;
    encode_message(MsgType::kFrame, payload, &whole);
    uint8_t header[kHeaderSize];
    encode_header(MsgType::kFrame, payload.data(), payload.size(), header);
    // The scatter-gather pair (header array, payload buffer) must put the
    // same bytes on the wire as the flat encoding.
    EXPECT_EQ(std::memcmp(header, whole.data(), kHeaderSize), 0);
    EXPECT_EQ(whole.size(), kHeaderSize + payload.size());
  }
}

TEST(Wire, EncodeMetaPlusBlobMatchesEncode) {
  FrameMsg msg;
  msg.request_id = 3;
  msg.stream_id = 11;
  msg.seq = 29;
  msg.dropped_before = 1;
  msg.render_ms = 2.125;
  msg.total_ms = 7.75;
  msg.cache_hit = 1;
  msg.encoded = {10, 20, 30, 40, 50};
  std::vector<uint8_t> whole;
  msg.encode(&whole);

  // The zero-copy path: metadata prefix, length placeholder, blob appended
  // in place, length patched — must be byte-identical to encode().
  std::vector<uint8_t> pieced;
  msg.encode_meta(&pieced);
  EXPECT_EQ(pieced.size(), FrameMsg::kMetaSize);
  const size_t blob_len_at = pieced.size();
  put_u32(&pieced, 0);
  pieced.insert(pieced.end(), msg.encoded.begin(), msg.encoded.end());
  put_u32_at(&pieced, blob_len_at, static_cast<uint32_t>(msg.encoded.size()));
  EXPECT_EQ(pieced, whole);

  FrameMsg back;
  ASSERT_TRUE(FrameMsg::decode(pieced, &back));
  EXPECT_EQ(back.encoded, msg.encoded);
  EXPECT_EQ(back.total_ms, msg.total_ms);
}

TEST(Wire, TruncatedInputNeedsMoreAtEveryPrefix) {
  ErrorMsg m;
  m.message = "partial";
  std::vector<uint8_t> payload;
  m.encode(&payload);
  std::vector<uint8_t> wire;
  encode_message(MsgType::kError, payload, &wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    WireMessage msg;
    size_t consumed = 123;
    EXPECT_EQ(decode_message(wire.data(), len, &msg, &consumed),
              WireStatus::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Wire, MalformedHeadersGetTypedErrors) {
  std::vector<uint8_t> wire;
  encode_message(MsgType::kBye, {}, &wire);
  WireMessage msg;
  size_t consumed = 0;

  auto corrupted = wire;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_EQ(decode_message(corrupted.data(), corrupted.size(), &msg, &consumed),
            WireStatus::kBadMagic);

  corrupted = wire;
  corrupted[4] = 0x7F;  // version
  EXPECT_EQ(decode_message(corrupted.data(), corrupted.size(), &msg, &consumed),
            WireStatus::kBadVersion);

  corrupted = wire;
  corrupted[6] = 0xEE;  // type
  corrupted[7] = 0xEE;
  EXPECT_EQ(decode_message(corrupted.data(), corrupted.size(), &msg, &consumed),
            WireStatus::kBadType);

  corrupted = wire;
  corrupted[11] = 0xFF;  // length: far beyond kMaxPayload
  EXPECT_EQ(decode_message(corrupted.data(), corrupted.size(), &msg, &consumed),
            WireStatus::kOversized);

  HelloMsg hello;
  hello.name = "x";
  std::vector<uint8_t> payload;
  hello.encode(&payload);
  std::vector<uint8_t> framed;
  encode_message(MsgType::kHello, payload, &framed);
  framed.back() ^= 0x01;  // payload corruption
  EXPECT_EQ(decode_message(framed.data(), framed.size(), &msg, &consumed),
            WireStatus::kBadCrc);
}

TEST(Wire, FuzzNeverCrashesAndNeverOverreads) {
  std::mt19937 rng(0xC0FFEEu);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 256);

  // Pure noise.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> buf(static_cast<size_t>(len(rng)));
    for (auto& b : buf) b = static_cast<uint8_t>(byte(rng));
    WireMessage msg;
    size_t consumed = 0;
    const WireStatus status = decode_message(buf.data(), buf.size(), &msg, &consumed);
    if (status == WireStatus::kOk) {
      EXPECT_LE(consumed, buf.size());
    } else {
      EXPECT_EQ(consumed, 0u);
    }
  }

  // Single-byte corruptions of a valid frame: decode stays total, and a
  // flipped payload byte can never slip through the CRC unnoticed.
  HelloMsg hello;
  hello.name = "fuzz-me";
  std::vector<uint8_t> payload;
  hello.encode(&payload);
  std::vector<uint8_t> wire;
  encode_message(MsgType::kHello, payload, &wire);
  for (size_t i = 0; i < wire.size(); ++i) {
    auto corrupted = wire;
    corrupted[i] ^= 0x40;
    WireMessage msg;
    size_t consumed = 0;
    const WireStatus status =
        decode_message(corrupted.data(), corrupted.size(), &msg, &consumed);
    if (i >= kHeaderSize) {
      EXPECT_EQ(status, WireStatus::kBadCrc) << "payload byte " << i;
    } else {
      EXPECT_NE(status, WireStatus::kOk) << "header byte " << i;
    }
  }

  // Malformed payloads behind a valid frame: the payload decoders reject
  // truncation and trailing garbage instead of misreading fields.
  RenderRequestMsg req;
  req.camera = Camera::orbit({32, 32, 32}, 0.1, 0.3);
  std::vector<uint8_t> good;
  req.encode(&good);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> part(good.begin(), good.begin() + cut);
    RenderRequestMsg out;
    EXPECT_FALSE(RenderRequestMsg::decode(part, &out)) << "cut " << cut;
  }
  auto trailing = good;
  trailing.push_back(0);
  RenderRequestMsg out;
  EXPECT_FALSE(RenderRequestMsg::decode(trailing, &out));
}

// --- optional trace block / tail -------------------------------------------

TEST(WireTrace, SampledContextRoundTripsOnEveryCarrier) {
  uint64_t root = 0;
  const obs::TraceContext ctx = obs::make_sampled_trace(&root);
  {
    RenderRequestMsg m;
    m.request_id = 7;
    m.camera = Camera::orbit({32, 32, 32}, 0.2, 0.3);
    m.trace = ctx;
    std::vector<uint8_t> p;
    m.encode(&p);
    EXPECT_EQ(p.size(), m.encoded_size());
    RenderRequestMsg b;
    ASSERT_TRUE(RenderRequestMsg::decode(p, &b));
    EXPECT_EQ(b.trace.trace_hi, ctx.trace_hi);
    EXPECT_EQ(b.trace.trace_lo, ctx.trace_lo);
    EXPECT_EQ(b.trace.parent_span, root);
    EXPECT_TRUE(b.trace.sampled());
  }
  {
    StreamRequestMsg m;
    m.stream_id = 3;
    m.frames = 4;
    m.trace = ctx;
    std::vector<uint8_t> p;
    m.encode(&p);
    StreamRequestMsg b;
    ASSERT_TRUE(StreamRequestMsg::decode(p, &b));
    EXPECT_EQ(b.trace.trace_lo, ctx.trace_lo);
    EXPECT_TRUE(b.trace.sampled());
  }
  {
    ErrorMsg m;
    m.request_id = 9;
    m.status = 2;
    m.message = "queue full";
    m.trace = ctx;
    std::vector<uint8_t> p;
    m.encode(&p);
    EXPECT_EQ(p.size(), m.encoded_size());
    ErrorMsg b;
    ASSERT_TRUE(ErrorMsg::decode(p, &b));
    EXPECT_EQ(b.trace.trace_hi, ctx.trace_hi);
    EXPECT_TRUE(b.trace.sampled());
  }
}

TEST(WireTrace, UnsampledEncodingIsByteIdenticalToPreTraceFormat) {
  // The compat contract: an unsampled request encodes NO trace block, so
  // its bytes are exactly the pre-trace wire format (and an old decoder's
  // exhausted() check still passes).
  RenderRequestMsg m;
  m.request_id = 5;
  m.camera = Camera::orbit({32, 32, 32}, 0.4, 0.3);
  std::vector<uint8_t> plain;
  m.encode(&plain);

  RenderRequestMsg traced = m;
  traced.trace = obs::make_sampled_trace();
  std::vector<uint8_t> with_block;
  traced.encode(&with_block);
  ASSERT_EQ(with_block.size(), plain.size() + kTraceBlockSize);
  // The sampled payload is the plain payload plus the trailing block.
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), with_block.begin()));

  // Decoding the plain (pre-trace) payload with the current decoder works
  // and yields an unsampled context — v-current reads v-old.
  RenderRequestMsg back;
  ASSERT_TRUE(RenderRequestMsg::decode(plain, &back));
  EXPECT_FALSE(back.trace.valid());

  // And an old decoder reading a sampled payload is modeled by truncating
  // the block off: the prefix is a complete, valid pre-trace payload.
  std::vector<uint8_t> prefix(with_block.begin(),
                              with_block.end() - kTraceBlockSize);
  EXPECT_EQ(prefix, plain);
}

TEST(WireTrace, TruncatedTraceBlockIsRejectedAtEveryCut) {
  RenderRequestMsg m;
  m.camera = Camera::orbit({32, 32, 32}, 0.1, 0.3);
  m.trace = obs::make_sampled_trace();
  std::vector<uint8_t> p;
  m.encode(&p);
  const size_t base = p.size() - kTraceBlockSize;
  for (size_t cut = base + 1; cut < p.size(); ++cut) {
    std::vector<uint8_t> part(p.begin(), p.begin() + cut);
    RenderRequestMsg out;
    EXPECT_FALSE(RenderRequestMsg::decode(part, &out)) << "cut " << cut;
  }
  // A wrong block version must be rejected, not misread.
  auto bad = p;
  bad[base] = kTraceBlockVersion + 1;
  RenderRequestMsg out;
  EXPECT_FALSE(RenderRequestMsg::decode(bad, &out));
}

TEST(WireTrace, FrameTraceTailRoundTripsSpans) {
  uint64_t root = 0;
  const obs::TraceContext ctx = obs::make_sampled_trace(&root);
  FrameMsg m;
  m.request_id = 3;
  m.seq = 12;
  m.render_ms = 1.5;
  m.encoded = {1, 2, 3, 4, 5, 6, 7};
  m.trace = ctx;
  for (int i = 0; i < 3; ++i) {
    obs::SpanRecord s;
    s.trace_hi = ctx.trace_hi;
    s.trace_lo = ctx.trace_lo;
    s.span_id = obs::next_span_id();
    s.parent_id = root;
    s.kind = static_cast<obs::SpanKind>(i + 2);
    s.t_start_ns = 1'000 + i;
    s.t_end_ns = 2'000 + i;
    s.tag = static_cast<uint64_t>(i);
    m.spans.push_back(s);
  }
  std::vector<uint8_t> whole;
  m.encode(&whole);
  EXPECT_EQ(whole.size(), m.encoded_size());

  // The zero-copy assembly (meta + blob + patched length + tail) must be
  // byte-identical to the flat encode, tail included.
  std::vector<uint8_t> pieced;
  m.encode_meta(&pieced);
  const size_t blob_len_at = pieced.size();
  put_u32(&pieced, 0);
  pieced.insert(pieced.end(), m.encoded.begin(), m.encoded.end());
  put_u32_at(&pieced, blob_len_at, static_cast<uint32_t>(m.encoded.size()));
  m.encode_trace_tail(&pieced);
  EXPECT_EQ(pieced, whole);

  FrameMsg b;
  ASSERT_TRUE(FrameMsg::decode(whole, &b));
  EXPECT_EQ(b.encoded, m.encoded);
  EXPECT_TRUE(b.trace.sampled());
  EXPECT_EQ(b.trace.trace_lo, ctx.trace_lo);
  ASSERT_EQ(b.spans.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b.spans[i].span_id, m.spans[i].span_id);
    EXPECT_EQ(b.spans[i].parent_id, root);
    EXPECT_EQ(b.spans[i].kind, m.spans[i].kind);
    EXPECT_EQ(b.spans[i].t_start_ns, m.spans[i].t_start_ns);
    EXPECT_EQ(b.spans[i].t_end_ns, m.spans[i].t_end_ns);
    EXPECT_EQ(b.spans[i].trace_hi, ctx.trace_hi);  // inherited from the tail
  }

  // Untraced frames carry no tail: byte-identical to the pre-trace format.
  FrameMsg plain = m;
  plain.trace = obs::TraceContext{};
  plain.spans.clear();
  std::vector<uint8_t> plain_bytes;
  plain.encode(&plain_bytes);
  EXPECT_EQ(plain_bytes.size(), whole.size() - m.trace_tail_size());
  // Truncating the tail mid-span must fail, not decode fewer spans.
  for (size_t cut = plain_bytes.size() + 1; cut < whole.size(); ++cut) {
    std::vector<uint8_t> part(whole.begin(), whole.begin() + cut);
    FrameMsg out;
    EXPECT_FALSE(FrameMsg::decode(part, &out)) << "cut " << cut;
  }
}

// --- frame codec ----------------------------------------------------------

TEST(Codec, RoundTripAcrossShapesAndContent) {
  std::mt19937 rng(1234);
  const int shapes[][2] = {{1, 1}, {3, 1}, {1, 5}, {17, 9}, {64, 48}, {129, 33}};
  for (const auto& wh : shapes) {
    for (const bool runny : {false, true}) {
      const ImageU8 img = random_image(rng, wh[0], wh[1], runny);
      std::vector<uint8_t> blob;
      encode_frame(img, &blob);
      // Raw fallback bounds every blob near the raw size (6-byte header).
      EXPECT_LE(blob.size(), 6u + img.pixel_count() * 4);
      ImageU8 back;
      ASSERT_EQ(decode_frame(blob.data(), blob.size(), &back), CodecStatus::kOk);
      EXPECT_TRUE(images_equal(img, back)) << wh[0] << "x" << wh[1];
    }
  }
}

TEST(Codec, DeltaSessionRoundTripsAndShrinksStaticFrames) {
  std::mt19937 rng(99);
  FrameEncoder encoder;
  FrameDecoder decoder;
  ImageU8 frame = random_image(rng, 60, 44, true);
  std::uniform_int_distribution<int> coord_x(0, 59), coord_y(0, 43), byte(0, 255);

  size_t first_size = 0;
  for (int f = 0; f < 12; ++f) {
    if (f > 0) {
      // Small-angle animation shape: a handful of pixels change per frame.
      for (int touch = 0; touch < 5; ++touch) {
        frame.at(coord_x(rng), coord_y(rng)) = {
            static_cast<uint8_t>(byte(rng)), 0, 0, 255};
      }
    }
    std::vector<uint8_t> blob;
    encoder.encode(frame, &blob);
    if (f == 0) first_size = blob.size();
    if (f > 0) {
      // Mostly-skip delta frames are far smaller than the first keyframe.
      EXPECT_LT(blob.size(), first_size / 2) << "frame " << f;
    }
    ImageU8 decoded;
    ASSERT_EQ(decoder.decode(blob, &decoded), CodecStatus::kOk) << "frame " << f;
    EXPECT_TRUE(images_equal(frame, decoded)) << "frame " << f;
  }

  // Dimension change mid-session: the codec must re-key, not delta across.
  const ImageU8 resized = random_image(rng, 30, 30, true);
  std::vector<uint8_t> blob;
  encoder.encode(resized, &blob);
  ImageU8 decoded;
  ASSERT_EQ(decoder.decode(blob, &decoded), CodecStatus::kOk);
  EXPECT_TRUE(images_equal(resized, decoded));
}

TEST(Codec, EncodeAppendIntoReusedBufferIsBitIdentical) {
  std::mt19937 rng(77);
  FrameEncoder fresh_session;   // encodes into a fresh vector every frame
  FrameEncoder reused_session;  // appends into one recycled buffer
  FrameDecoder decoder;
  std::vector<uint8_t> reused;  // stands in for a pooled wire payload
  ImageU8 frame = random_image(rng, 37, 23, true);
  std::uniform_int_distribution<int> coord_x(0, 36), coord_y(0, 22);
  for (int f = 0; f < 12; ++f) {
    // Small frame-to-frame mutations so the delta codec's skip/rle/raw
    // scanline modes all get exercised across the sequence.
    for (int k = 0; k < 3; ++k) {
      frame.at(coord_x(rng), coord_y(rng)) = Pixel8{
          static_cast<uint8_t>(f * 17), 0, static_cast<uint8_t>(k), 255};
    }
    std::vector<uint8_t> fresh;
    fresh_session.encode(frame, &fresh);

    reused.clear();
    reused.resize(13, 0xEE);  // pre-existing prefix (frame metadata stand-in)
    reused_session.encode_append(frame, &reused);
    ASSERT_EQ(reused.size(), 13 + fresh.size()) << "frame " << f;
    EXPECT_EQ(std::memcmp(reused.data() + 13, fresh.data(), fresh.size()), 0)
        << "frame " << f;
    for (int i = 0; i < 13; ++i) EXPECT_EQ(reused[static_cast<size_t>(i)], 0xEE);

    ImageU8 decoded;
    ASSERT_EQ(decoder.decode(reused.data() + 13, reused.size() - 13, &decoded),
              CodecStatus::kOk);
    EXPECT_TRUE(images_equal(decoded, frame)) << "frame " << f;
  }
}

TEST(Codec, CorruptInputsReturnTypedErrorsWithoutPoisoningState) {
  std::mt19937 rng(7);
  FrameEncoder encoder;
  FrameDecoder decoder;
  const ImageU8 f0 = random_image(rng, 40, 30, true);
  std::vector<uint8_t> blob0;
  encoder.encode(f0, &blob0);
  ImageU8 out;
  ASSERT_EQ(decoder.decode(blob0, &out), CodecStatus::kOk);

  ImageU8 f1 = f0;
  f1.at(5, 5) = {1, 2, 3, 4};
  std::vector<uint8_t> blob1;
  encoder.encode(f1, &blob1);

  // Every truncation of the delta blob fails with a typed status and must
  // not disturb the decoder's previous-frame state.
  for (size_t cut = 0; cut < blob1.size(); ++cut) {
    ImageU8 scratch;
    EXPECT_NE(decoder.decode(blob1.data(), cut, &scratch), CodecStatus::kOk)
        << "cut " << cut;
  }
  ImageU8 ok;
  ASSERT_EQ(decoder.decode(blob1, &ok), CodecStatus::kOk);
  EXPECT_TRUE(images_equal(f1, ok));

  // Specific typed failures.
  {
    FrameDecoder fresh;
    ImageU8 scratch;
    auto bad = blob1;  // delta frame against a decoder with no previous
    if (bad[4] == static_cast<uint8_t>(FrameCodec::kDelta)) {
      EXPECT_EQ(fresh.decode(bad, &scratch), CodecStatus::kMissingPrevious);
    }
  }
  {
    auto bad = blob0;
    bad[4] = 9;  // unknown codec byte
    ImageU8 scratch;
    FrameDecoder fresh;
    EXPECT_EQ(fresh.decode(bad, &scratch), CodecStatus::kBadCodec);
  }
  {
    std::vector<uint8_t> tiny = {1, 0, 1, 0};  // ends mid-header
    ImageU8 scratch;
    FrameDecoder fresh;
    EXPECT_EQ(fresh.decode(tiny.data(), tiny.size(), &scratch),
              CodecStatus::kTruncated);
  }
  {
    std::vector<uint8_t> zero = {0, 0, 0, 0, 0, 0};  // 0x0 dimensions
    ImageU8 scratch;
    FrameDecoder fresh;
    EXPECT_EQ(fresh.decode(zero.data(), zero.size(), &scratch),
              CodecStatus::kBadDimensions);
  }
  {
    auto padded = blob0;
    padded.push_back(0xAB);
    ImageU8 scratch;
    FrameDecoder fresh;
    EXPECT_EQ(fresh.decode(padded.data(), padded.size(), &scratch),
              CodecStatus::kTrailingBytes);
  }
}

TEST(Codec, FuzzRandomBlobsNeverCrash) {
  std::mt19937 rng(0xFEEDu);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 400);
  FrameDecoder decoder;
  int decoded_ok = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> blob(static_cast<size_t>(len(rng)));
    for (auto& b : blob) b = static_cast<uint8_t>(byte(rng));
    ImageU8 out;
    if (decoder.decode(blob.data(), blob.size(), &out) == CodecStatus::kOk) {
      ++decoded_ok;  // possible (tiny raw frames), must stay in-bounds
      EXPECT_GT(out.pixel_count(), 0u);
    }
  }
  // Sanity: the fuzz actually exercised the reject paths.
  EXPECT_LT(decoded_ok, 3000);
}

// --- loopback end-to-end --------------------------------------------------

serve::VolumeKey small_key(int n = 40) {
  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = n;
  return key;
}

TEST(Net, ServedFramesBitIdenticalToDirectRender) {
  const serve::VolumeKey key = small_key();
  const int kFrames = 5;
  const double start_yaw = 0.4, pitch = 0.3, step_deg = 3.0;

  serve::ServiceOptions sopt;
  sopt.worker_threads = 3;
  serve::RenderService service(sopt);
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  std::vector<uint64_t> served;
  for (int f = 0; f < kFrames; ++f) {
    RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(f) + 1;
    req.session_id = 7;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz},
                               start_yaw + f * step_deg * kDeg, pitch);
    ImageU8 image;
    FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
    served.push_back(pixel_hash(image));
  }
  client.send_bye(nullptr);

  // Direct path: same options, same frame sequence, no network.
  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;
  for (int f = 0; f < kFrames; ++f) {
    renderer.render(volume,
                    Camera::orbit({key.nx, key.ny, key.nz},
                                  start_yaw + f * step_deg * kDeg, pitch),
                    exec, &direct, &stats);
    EXPECT_EQ(pixel_hash(direct), served[f]) << "frame " << f;
  }

  EXPECT_EQ(server.metrics().protocol_errors.load(), 0u);
  EXPECT_EQ(server.metrics().frames_sent.load(), static_cast<uint64_t>(kFrames));
  // The codec must beat raw RGBA on a coherent orbit sequence.
  EXPECT_LT(server.metrics().wire_ratio(), 0.6);
}

TEST(NetTrace, TracedRenderIsBitIdenticalAndRecordsParentedSpans) {
  const serve::VolumeKey key = small_key(32);
  obs::SpanRecorder recorder;
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  sopt.recorder = &recorder;
  serve::RenderService service(sopt);
  NetServerOptions nopt;
  nopt.recorder = &recorder;
  NetServer server(service, nopt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  RenderRequestMsg req;
  req.request_id = 1;
  req.session_id = 7;
  req.volume = key;
  req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.5, 0.3);

  // Unsampled request: zero spans recorded, no trace tail on the frame.
  ImageU8 plain_img;
  FrameMsg plain_meta;
  ASSERT_TRUE(client.render(req, &plain_img, &plain_meta, &error)) << error;
  EXPECT_FALSE(plain_meta.trace.sampled());
  EXPECT_TRUE(plain_meta.spans.empty());
  EXPECT_EQ(recorder.recorded(), 0u);

  // Same request, sampled: the image must be bit-identical (tracing cannot
  // perturb rendering) and the frame must carry the stage spans.
  uint64_t root = 0;
  req.request_id = 2;
  req.trace = obs::make_sampled_trace(&root);
  ImageU8 traced_img;
  FrameMsg traced_meta;
  WallTimer rtt;
  ASSERT_TRUE(client.render(req, &traced_img, &traced_meta, &error)) << error;
  const double rtt_ms = rtt.millis();
  EXPECT_TRUE(images_equal(plain_img, traced_img));
  ASSERT_TRUE(traced_meta.trace.sampled());
  EXPECT_EQ(traced_meta.trace.trace_hi, req.trace.trace_hi);
  EXPECT_EQ(traced_meta.trace.trace_lo, req.trace.trace_lo);

  // Parentage: exactly one request span, rooted at the client's root span;
  // every stage span is its child.
  const obs::SpanRecord* request_span = nullptr;
  for (const obs::SpanRecord& s : traced_meta.spans) {
    if (s.kind == obs::SpanKind::kRequest) {
      ASSERT_EQ(request_span, nullptr) << "duplicate request span";
      request_span = &s;
    }
  }
  ASSERT_NE(request_span, nullptr);
  EXPECT_EQ(request_span->parent_id, root);
  bool saw_composite = false, saw_warp = false, saw_encode = false;
  for (const obs::SpanRecord& s : traced_meta.spans) {
    if (s.kind == obs::SpanKind::kRequest) continue;
    EXPECT_EQ(s.parent_id, request_span->span_id) << obs::to_string(s.kind);
    saw_composite |= s.kind == obs::SpanKind::kComposite;
    saw_warp |= s.kind == obs::SpanKind::kWarp;
    saw_encode |= s.kind == obs::SpanKind::kFrameEncode;
  }
  EXPECT_TRUE(saw_composite);
  EXPECT_TRUE(saw_warp);
  EXPECT_TRUE(saw_encode);

  // Duration consistency: stage durations fit inside the request span and
  // the whole server-side request fits inside the measured round-trip.
  double stage_ms = 0.0;
  for (const obs::SpanRecord& s : traced_meta.spans) {
    EXPECT_GE(s.duration_ms(), 0.0) << obs::to_string(s.kind);
    if (s.kind == obs::SpanKind::kComposite || s.kind == obs::SpanKind::kWarp ||
        s.kind == obs::SpanKind::kQueueWait) {
      stage_ms += s.duration_ms();
    }
  }
  EXPECT_LE(stage_ms, request_span->duration_ms() + 0.5);
  EXPECT_LE(request_span->duration_ms(), rtt_ms + 0.5);

  // The recorder saw the same spans (plus the send span, which lands on
  // the poll thread after the frame is already on the wire, so wait for it).
  std::vector<obs::SpanRecord> recorded;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    recorded = recorder.snapshot();
    bool sent = false;
    for (const obs::SpanRecord& s : recorded) sent |= s.kind == obs::SpanKind::kSend;
    if (sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_GE(recorded.size(), traced_meta.spans.size());
  bool saw_send = false;
  for (const obs::SpanRecord& s : recorded) {
    EXPECT_EQ(s.trace_lo, req.trace.trace_lo);
    saw_send |= s.kind == obs::SpanKind::kSend;
  }
  EXPECT_TRUE(saw_send);
  client.send_bye(nullptr);
}

TEST(NetTrace, HeadSamplingPromotesUnsampledRequests) {
  const serve::VolumeKey key = small_key(32);
  obs::SpanRecorder recorder;
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  sopt.recorder = &recorder;
  serve::RenderService service(sopt);
  NetServerOptions nopt;
  nopt.recorder = &recorder;
  nopt.trace_sample = 2;  // every 2nd unsampled request gets a trace
  NetServer server(service, nopt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  int sampled = 0;
  for (int f = 0; f < 4; ++f) {
    RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(f) + 1;
    req.session_id = 3;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.1 * f, 0.3);
    ImageU8 image;
    FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
    if (meta.trace.sampled()) {
      ++sampled;
      EXPECT_FALSE(meta.spans.empty());
    }
  }
  EXPECT_EQ(sampled, 2);  // requests 2 and 4 of 4 at --trace-sample=2
  EXPECT_GT(recorder.recorded(), 0u);
  client.send_bye(nullptr);
}

// Regression: a stopped NetServer must be startable again. stop() retires
// the completion queue permanently — completion callbacks still in flight
// inside the render service hold references to it and must keep landing in
// a *closed* queue — so start() has to install a fresh queue wired to the
// new wakeup pipe. Before that fix a restarted server accepted connections
// and admitted renders, but every completion fell into the retired closed
// queue and no frame was ever delivered. The shortened recv timeout turns
// a regression into a fast client-side failure instead of a 30 s hang.
TEST(Net, ServerRestartDeliversFramesAgain) {
  const serve::VolumeKey key = small_key(32);
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  serve::RenderService service(sopt);
  NetServer server(service);
  std::string error;

  NetClientOptions copt;
  copt.recv_timeout_ms = 10'000.0;

  uint64_t first_hash = 0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(server.start(&error)) << "round " << round << ": " << error;
    ASSERT_TRUE(server.running());

    NetClient client(copt);
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << "round " << round << ": " << error;

    RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(round) + 1;
    req.session_id = 9;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.5, 0.25);
    ImageU8 image;
    FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error))
        << "round " << round << ": " << error;

    // Same camera each round: the restarted server must serve the
    // identical frame through its fresh queue.
    if (round == 0) {
      first_hash = pixel_hash(image);
    } else {
      EXPECT_EQ(pixel_hash(image), first_hash) << "round " << round;
    }

    client.send_bye(nullptr);
    server.stop();
    EXPECT_FALSE(server.running());
  }
}

TEST(Net, StreamDeliversFramesInOrderBitIdentical) {
  const serve::VolumeKey key = small_key(36);
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  serve::RenderService service(sopt);
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  StreamRequestMsg req;
  req.stream_id = 1;
  req.session_id = 3;
  req.volume = key;
  req.start_yaw = 0.2;
  req.pitch = 0.35;
  req.step_deg = 4.0;
  req.frames = 6;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  std::vector<std::pair<uint32_t, uint64_t>> received;  // (seq, hash)
  StreamEndMsg end;
  for (;;) {
    NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, NetClient::Event::Kind::kError);
    if (event.kind == NetClient::Event::Kind::kStreamEnd) {
      end = event.end;
      break;
    }
    if (!received.empty()) {
      EXPECT_GT(event.frame.seq, received.back().first);
    }
    received.emplace_back(event.frame.seq, pixel_hash(event.image));
  }
  client.send_bye(nullptr);
  ASSERT_EQ(received.size(), 6u);
  EXPECT_EQ(end.frames_sent, 6u);
  EXPECT_EQ(end.frames_dropped, 0u);

  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;
  for (const auto& [seq, hash] : received) {
    renderer.render(volume,
                    Camera::orbit({key.nx, key.ny, key.nz},
                                  req.start_yaw + seq * req.step_deg * kDeg,
                                  req.pitch),
                    exec, &direct, &stats);
    EXPECT_EQ(pixel_hash(direct), hash) << "seq " << seq;
  }
}

// Two sessions streaming concurrently through one server: every frame is
// delivered or counted as dropped, nothing is a protocol error and the
// codec keeps the wire under 0.6 of raw RGBA. That no encoded byte is
// copied on the way to the socket is the payload-regrowth replay of
// NetAlloc.WarmDeliveryPathAllocatesAtMostTwoPerFrameAndCopiesNothing.
TEST(Net, ConcurrentStreamsDeliverCompressedWithoutErrorsOrCopies) {
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  serve::RenderService service(sopt);
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr uint32_t kFrames = 12;
  std::atomic<uint32_t> delivered{0}, dropped{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (uint64_t s = 1; s <= 2; ++s) {
    sessions.emplace_back([&, s] {
      NetClient client;
      std::string err;
      StreamRequestMsg req;
      req.stream_id = s;
      req.session_id = s;
      req.volume = small_key(40);
      req.start_yaw = 0.13 * static_cast<double>(s);
      req.step_deg = 2.0;
      req.frames = kFrames;
      if (!client.connect("127.0.0.1", server.port(), &err) ||
          !client.open_stream(req, &err)) {
        failures.fetch_add(1);
        return;
      }
      for (;;) {
        NetClient::Event event;
        if (!client.next_event(&event, &err) ||
            event.kind == NetClient::Event::Kind::kError) {
          failures.fetch_add(1);
          break;
        }
        if (event.kind == NetClient::Event::Kind::kStreamEnd) {
          dropped.fetch_add(event.end.frames_dropped);
          break;
        }
        delivered.fetch_add(1);
      }
      client.send_bye(nullptr);
    });
  }
  for (std::thread& t : sessions) t.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(delivered.load() + dropped.load(), 2 * kFrames);
  const NetMetrics& m = server.metrics();
  EXPECT_EQ(m.protocol_errors.load(), 0u);
  EXPECT_EQ(m.frames_sent.load(), delivered.load());
  EXPECT_LE(m.wire_ratio(), 0.6);
}

TEST(Net, BackpressureDropsOldestAndReportsCounts) {
  const serve::VolumeKey key = small_key(32);
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  serve::RenderService service(sopt);
  NetServerOptions nopt;
  nopt.max_pending_frames = 1;
  nopt.stream_window = 4;
  // Tiny buffers everywhere: a 4 KB user-space send budget plus minimal
  // kernel buffers on both ends, so loopback cannot absorb the stream and
  // the pending queue must shed oldest-first while the client refuses to
  // read.
  nopt.max_send_buffer_bytes = 4 * 1024;
  nopt.socket_send_buffer_bytes = 4 * 1024;
  NetServer server(service, nopt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClientOptions copt;
  copt.recv_buffer_bytes = 4 * 1024;
  NetClient client(copt);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  StreamRequestMsg req;
  req.stream_id = 9;
  req.session_id = 5;
  req.volume = key;
  req.step_deg = 5.0;
  req.frames = 40;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  // Don't read until the server has been forced to shed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.metrics().frames_dropped.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(server.metrics().frames_dropped.load(), 0u);

  uint32_t received = 0, dropped_before_sum = 0;
  StreamEndMsg end;
  for (;;) {
    NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, NetClient::Event::Kind::kError);
    if (event.kind == NetClient::Event::Kind::kStreamEnd) {
      end = event.end;
      break;
    }
    ++received;
    dropped_before_sum += event.frame.dropped_before;
  }
  client.send_bye(nullptr);

  // Conservation: every frame was either delivered or counted as dropped,
  // and the per-frame gap reports agree with the stream-end total.
  EXPECT_EQ(end.frames_sent, received);
  EXPECT_GT(end.frames_dropped, 0u);
  EXPECT_EQ(received + end.frames_dropped, req.frames);
  EXPECT_LE(dropped_before_sum, end.frames_dropped);
  EXPECT_EQ(server.metrics().frames_dropped.load(),
            static_cast<uint64_t>(end.frames_dropped));
}

TEST(Net, GarbageBytesGetTypedErrorThenClose) {
  serve::RenderService service;
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  UniqueFd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd.get(), garbage, sizeof(garbage) - 1, 0), 0);

  // The server answers with a framed kError, then closes the connection.
  std::vector<uint8_t> in(4096);
  size_t have = 0;
  bool got_eof = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd.get(), in.data() + have, in.size() - have, 0);
    if (n == 0) got_eof = true;
    if (n > 0) have += static_cast<size_t>(n);
  }
  ASSERT_TRUE(got_eof);
  WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(decode_message(in.data(), have, &msg, &consumed), WireStatus::kOk);
  EXPECT_EQ(msg.type, MsgType::kError);
  ErrorMsg err;
  ASSERT_TRUE(ErrorMsg::decode(msg.payload, &err));
  EXPECT_FALSE(err.message.empty());
  EXPECT_GE(server.metrics().protocol_errors.load(), 1u);
}

TEST(Net, RequestBeforeHelloIsRejected) {
  serve::RenderService service;
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  UniqueFd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  RenderRequestMsg req;
  req.camera = Camera::orbit({32, 32, 32}, 0.1, 0.3);
  std::vector<uint8_t> payload, wire;
  req.encode(&payload);
  encode_message(MsgType::kRenderRequest, payload, &wire);
  ASSERT_GT(::send(fd.get(), wire.data(), wire.size(), 0), 0);

  std::vector<uint8_t> in(4096);
  size_t have = 0;
  bool got_eof = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd.get(), in.data() + have, in.size() - have, 0);
    if (n == 0) got_eof = true;
    if (n > 0) have += static_cast<size_t>(n);
  }
  ASSERT_TRUE(got_eof);
  WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(decode_message(in.data(), have, &msg, &consumed), WireStatus::kOk);
  EXPECT_EQ(msg.type, MsgType::kError);
}

// Satellite regression: a hello carrying an unsupported protocol version
// gets a typed kError naming both versions, then close — never a HelloAck
// in a protocol the peer never claimed to speak.
TEST(Net, HelloVersionMismatchGetsTypedErrorThenClose) {
  serve::RenderService service;
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  UniqueFd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  HelloMsg hello;
  hello.version = 99;
  hello.name = "from-the-future";
  std::vector<uint8_t> payload, wire;
  hello.encode(&payload);
  encode_message(MsgType::kHello, payload, &wire);
  ASSERT_GT(::send(fd.get(), wire.data(), wire.size(), 0), 0);

  std::vector<uint8_t> in(4096);
  size_t have = 0;
  bool got_eof = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd.get(), in.data() + have, in.size() - have, 0);
    if (n == 0) got_eof = true;
    if (n > 0) have += static_cast<size_t>(n);
  }
  ASSERT_TRUE(got_eof);
  WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(decode_message(in.data(), have, &msg, &consumed), WireStatus::kOk);
  EXPECT_EQ(msg.type, MsgType::kError);
  ErrorMsg err;
  ASSERT_TRUE(ErrorMsg::decode(msg.payload, &err));
  EXPECT_NE(err.message.find("unsupported protocol version"), std::string::npos)
      << err.message;
  EXPECT_GE(server.metrics().protocol_errors.load(), 1u);
}

// Satellite regression: transient refusals retry with backoff and, when
// exhausted, surface as the typed ConnectStatus::kUnavailable (not a
// generic error string the caller has to pattern-match).
TEST(Net, ConnectRetryExhaustionReportsUnavailable) {
  // Reserve a port nobody listens on.
  std::string error;
  UniqueFd placeholder = tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_TRUE(placeholder.valid()) << error;
  const uint16_t port = local_port(placeholder.get());
  placeholder.reset();

  NetClientOptions copt;
  copt.connect_retries = 2;
  copt.connect_backoff_ms = 5;
  NetClient client(copt);
  EXPECT_FALSE(client.connect("127.0.0.1", port, &error));
  EXPECT_EQ(client.connect_status(), ConnectStatus::kUnavailable);
  EXPECT_EQ(client.connect_attempts(), 3);  // first try + 2 retries
}

TEST(Net, ConnectRetriesUntilServerAppears) {
  std::string error;
  UniqueFd placeholder = tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_TRUE(placeholder.valid()) << error;
  const uint16_t port = local_port(placeholder.get());
  placeholder.reset();

  serve::RenderService service;
  NetServerOptions nopt;
  nopt.port = port;
  NetServer server(service, nopt);

  NetClientOptions copt;
  copt.connect_retries = 10;
  copt.connect_backoff_ms = 25;
  NetClient client(copt);
  std::string connect_error;
  bool connected = false;
  std::thread connector(
      [&] { connected = client.connect("127.0.0.1", port, &connect_error); });
  // Let the first attempt(s) hit a closed port, then bring the server up.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_TRUE(server.start(&error)) << error;
  connector.join();
  EXPECT_TRUE(connected) << connect_error;
  EXPECT_EQ(client.connect_status(), ConnectStatus::kOk);
  EXPECT_GT(client.connect_attempts(), 1);
  client.send_bye(nullptr);
}

TEST(Net, IdleConnectionsAreHarvested) {
  serve::RenderService service;
  NetServerOptions nopt;
  nopt.idle_timeout_ms = 60.0;
  NetServer server(service, nopt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // The sweep counts the timeout as it walks the peers and the close only
  // at its end, so wait for both before asserting either.
  while ((server.metrics().idle_timeouts.load() == 0 ||
          server.metrics().connections_closed.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.metrics().idle_timeouts.load(), 1u);
  EXPECT_EQ(server.metrics().connections_closed.load(), 1u);
}

// Reads until the peer closes (or 10 s pass); true on EOF. The bytes read
// land in *in when it is given.
bool read_to_eof(int fd, std::vector<uint8_t>* in = nullptr) {
  std::vector<uint8_t> buf(4096);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n == 0) return true;
    if (n > 0 && in != nullptr) in->insert(in->end(), buf.begin(), buf.begin() + n);
  }
  return false;
}

// With max_connections = 2, a third connection is closed as soon as it is
// accepted, without a byte, and counted once; the two admitted ones are
// still served.
TEST(Net, ConnectionsPastTheCapAreClosedAtOnce) {
  serve::RenderService service;
  NetServerOptions nopt;
  nopt.max_connections = 2;
  NetServer server(service, nopt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClient a, b;
  ASSERT_TRUE(a.connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(b.connect("127.0.0.1", server.port(), &error)) << error;
  UniqueFd third = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(third.valid()) << error;
  std::vector<uint8_t> in;
  EXPECT_TRUE(read_to_eof(third.get(), &in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(server.metrics().connections_rejected.load(), 1u);
  EXPECT_EQ(server.metrics().connections_accepted.load(), 2u);
  std::string json;
  EXPECT_TRUE(a.fetch_metrics(&json, &error)) << error;
  EXPECT_TRUE(b.fetch_metrics(&json, &error)) << error;
}

// A peer that accepts the connection but never answers the hello: connect()
// gives up after recv_timeout_ms with "receive timeout" instead of hanging.
TEST(Net, ConnectTimesOutWhenTheHelloIsNeverAnswered) {
  std::string error;
  UniqueFd listener = tcp_listen("127.0.0.1", 0, 4, &error);
  ASSERT_TRUE(listener.valid()) << error;

  NetClientOptions copt;
  copt.recv_timeout_ms = 200.0;
  NetClient client(copt);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect("127.0.0.1", local_port(listener.get()), &error));
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(error, "receive timeout");
  EXPECT_GE(ms, 150.0);
  EXPECT_LT(ms, 5000.0);
  EXPECT_EQ(client.connect_status(), ConnectStatus::kError);
  EXPECT_FALSE(client.connected());
}

// A one-shot render's bookkeeping ends with its reply: after any number of
// renders on one connection the client holds no pending request, and frames
// of two interleaved sessions still decode bit-identically, each on its own
// session's delta chain. A per-request error ends its request too.
TEST(Net, OneShotRendersLeaveNoPendingRequests) {
  const serve::VolumeKey key = small_key(32);
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  serve::RenderService service(sopt);
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;

  const int kRenders = 10;
  for (int f = 0; f < kRenders; ++f) {
    RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(f) + 1;
    req.session_id = 1 + static_cast<uint64_t>(f % 2);
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.2 + f * 3.0 * kDeg, 0.3);
    ImageU8 image;
    FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
    EXPECT_EQ(client.pending_requests(), 0u) << "render " << f;
    renderer.render(volume, req.camera, exec, &direct, &stats);
    EXPECT_TRUE(images_equal(image, direct)) << "render " << f;
  }
  EXPECT_GT(server.metrics().frames_sent.load(), 0u);

  RenderRequestMsg late;
  late.request_id = 99;
  late.session_id = 1;
  late.volume = key;
  late.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.2, 0.3);
  late.deadline_ms = 1e-6;  // already missed when it is admitted
  ImageU8 image;
  EXPECT_FALSE(client.render(late, &image, nullptr, &error));
  EXPECT_NE(error.find("server error"), std::string::npos) << error;
  EXPECT_EQ(client.pending_requests(), 0u);
  EXPECT_TRUE(client.connected());
  client.send_bye(nullptr);
}

TEST(Net, MetricsEndpointServesCombinedDocument) {
  serve::RenderService service;
  NetServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
  std::string json;
  ASSERT_TRUE(client.fetch_metrics(&json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(json_parse(json, &doc, &error)) << error;
  EXPECT_NE(doc.find_path("service.admission.submitted"), nullptr);
  EXPECT_NE(doc.find_path("net.connections.accepted"), nullptr);
  const JsonValue* wire_ratio = doc.find_path("net.frames.wire_ratio");
  ASSERT_NE(wire_ratio, nullptr);
  EXPECT_EQ(wire_ratio->as_double(), 1.0);  // nothing sent yet
  EXPECT_NE(doc.find_path("net_pool.acquires"), nullptr);
  client.send_bye(nullptr);
}

// Shrunken kernel send buffers force sendmsg() to accept partial iovecs, so
// every frame crosses the socket in several writev calls that must resume
// mid-header and mid-payload. With payload poisoning on, a buffer recycled
// before it was fully written would corrupt the stream; the bit-identity
// check against the direct renderer proves exact reassembly.
TEST(Net, PartialWritesResumeAndStayBitIdentical) {
  const serve::VolumeKey key = small_key(36);
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  serve::RenderService service(sopt);
  NetServerOptions nopt;
  nopt.socket_send_buffer_bytes = 4 * 1024;
  nopt.max_send_buffer_bytes = 64u << 20;  // never shed: every frame arrives
  nopt.pool_poison = true;
  NetServer server(service, nopt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClientOptions copt;
  copt.recv_buffer_bytes = 2 * 1024;  // slow, sippy reader
  NetClient client(copt);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  StreamRequestMsg req;
  req.stream_id = 2;
  req.session_id = 6;
  req.volume = key;
  req.start_yaw = 0.3;
  req.pitch = 0.25;
  req.step_deg = 4.0;
  req.frames = 8;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  std::vector<std::pair<uint32_t, uint64_t>> received;
  StreamEndMsg end;
  for (;;) {
    NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, NetClient::Event::Kind::kError);
    if (event.kind == NetClient::Event::Kind::kStreamEnd) {
      end = event.end;
      break;
    }
    received.emplace_back(event.frame.seq, pixel_hash(event.image));
    // Dawdle so the server's send queue stays backed up and drains in
    // many small writev slices.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  client.send_bye(nullptr);
  ASSERT_EQ(received.size(), 8u);
  EXPECT_EQ(end.frames_dropped, 0u);

  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;
  for (const auto& [seq, hash] : received) {
    renderer.render(volume,
                    Camera::orbit({key.nx, key.ny, key.nz},
                                  req.start_yaw + seq * req.step_deg * kDeg,
                                  req.pitch),
                    exec, &direct, &stats);
    EXPECT_EQ(pixel_hash(direct), hash) << "seq " << seq;
  }

  server.stop();
  service.drain();
  // Every pooled payload and every rendered frame came home: the counters
  // conserve and nothing is still outstanding after shutdown.
  const PoolStats wire_pool = server.pool_stats();
  EXPECT_TRUE(wire_pool.conserves());
  EXPECT_EQ(wire_pool.outstanding, 0u);
  EXPECT_GT(wire_pool.hits, 0u);  // payload buffers were actually reused
  const PoolStats frame_pool = service.frame_pool_stats();
  EXPECT_TRUE(frame_pool.conserves());
  EXPECT_EQ(frame_pool.outstanding, 0u);
  EXPECT_GT(frame_pool.hits, 0u);  // frames re-rendered into recycled pixels
}

TEST(Net, ServerStopUnblocksAndCallbacksStaySafe) {
  serve::RenderService service;
  auto server = std::make_unique<NetServer>(service);
  std::string error;
  ASSERT_TRUE(server->start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &error)) << error;
  StreamRequestMsg req;
  req.stream_id = 1;
  req.session_id = 1;
  req.volume = small_key(32);
  req.frames = 50;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  // Stop (and destroy) the server while stream renders are in flight: the
  // shared completion queue keeps late callbacks from touching freed state.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->stop();
  server.reset();
  service.drain();

  // Frames already in flight may still be readable from local buffers; the
  // connection must terminate (no hang, no crash) within a bounded number
  // of events. ASan/TSan runs make this a real use-after-free probe.
  int events = 0;
  NetClient::Event event;
  while (events < 200 && client.next_event(&event, &error)) ++events;
  EXPECT_LT(events, 200);
}

// --- warm-path allocation gates ---------------------------------------------
// This binary links tools/alloc_probe.cpp, which counts every global
// operator new, so a gate brackets a warm loop with two snapshots.

constexpr int kWarmup = 16;
constexpr int kMeasured = 96;

// Consecutive orbit frames of one session, so cycling them gives the delta
// codec realistic frame-to-frame change.
const std::vector<ImageU8>& orbit_frames() {
  static const std::vector<ImageU8> frames = [] {
    serve::RenderService service;
    std::vector<ImageU8> out;
    for (int f = 0; f < 8; ++f) {
      serve::RenderRequest req;
      req.session_id = 1;
      req.volume = small_key(64);
      req.camera = Camera::orbit({64, 64, 64}, f * 2.0 * kDeg, 0.35);
      serve::Ticket t = service.submit(req);
      serve::FrameResult r = t.result.get();
      out.push_back(std::move(r.image));
    }
    return out;
  }();
  return frames;
}

struct Delivered {
  uint64_t wire_bytes = 0;
  uint64_t copied_bytes = 0;  // encoded bytes moved by a payload regrowth
};

// One frame down NetServer::send_frame's path: a pooled payload sized for
// the raw-fallback worst case, the metadata, the codec output appended in
// place, the blob length patched, the header stamped. With a recorder the
// frame is sampled and carries its stage spans in the trace tail.
void deliver_frame(BufferPool& pool, FrameEncoder& encoder, const ImageU8& img,
                   uint32_t seq, obs::SpanRecorder* recorder, Delivered* out) {
  constexpr size_t kCodecHeader = 6;  // u16 w, u16 h, u8 codec, u8 reserved
  FrameMsg msg;
  msg.stream_id = 1;
  msg.seq = seq;
  msg.cache_hit = 1;
  size_t hint = FrameMsg::kMetaSize + 4 + kCodecHeader + img.pixel_count() * 4;
  if (recorder != nullptr) {
    uint64_t root = 0;
    msg.trace = obs::make_sampled_trace(&root);
    const int64_t now = steady_now_ns();
    for (const obs::SpanKind kind :
         {obs::SpanKind::kRequest, obs::SpanKind::kQueueWait,
          obs::SpanKind::kComposite, obs::SpanKind::kWarp,
          obs::SpanKind::kFrameEncode}) {
      obs::SpanRecord span;
      span.trace_hi = msg.trace.trace_hi;
      span.trace_lo = msg.trace.trace_lo;
      span.span_id = obs::next_span_id();
      span.parent_id = msg.spans.empty() ? root : msg.spans.front().span_id;
      span.kind = kind;
      span.t_start_ns = now - 1'000'000;
      span.t_end_ns = now;
      recorder->record(msg.trace, span);
      // The tail travels wall-anchored, as the server sends it.
      span.t_start_ns = steady_to_wall_ns(span.t_start_ns);
      span.t_end_ns = steady_to_wall_ns(span.t_end_ns);
      msg.spans.push_back(span);
    }
    hint += kTraceTailHeaderSize + msg.spans.size() * kWireSpanSize;
  }
  PooledBuffer payload = pool.acquire(hint);
  const uint8_t* base = payload.vec().data();
  msg.encode_meta(&payload.vec());
  const size_t blob_len_at = payload.vec().size();
  put_u32(&payload.vec(), 0);
  encoder.encode_append(img, &payload.vec());
  put_u32_at(&payload.vec(), blob_len_at,
             static_cast<uint32_t>(payload.vec().size() - blob_len_at - 4));
  if (recorder != nullptr) msg.encode_trace_tail(&payload.vec());
  uint8_t header[kHeaderSize];
  encode_header(MsgType::kFrame, payload.vec().data(), payload.vec().size(), header);
  if (payload.vec().data() != base) out->copied_bytes += payload.vec().size();
  out->wire_bytes += kHeaderSize + payload.vec().size();
}

// Per-frame cost of delivering kMeasured warm frames.
struct DeliveryCost {
  double allocs = 0.0;
  double copied_bytes = 0.0;
  double wire_bytes = 0.0;
};

DeliveryCost warm_delivery_cost(obs::SpanRecorder* recorder) {
  const std::vector<ImageU8>& frames = orbit_frames();
  BufferPool pool;
  FrameEncoder encoder;
  Delivered warm, measured;
  uint32_t seq = 0;
  for (int f = 0; f < kWarmup; ++f, ++seq) {
    deliver_frame(pool, encoder, frames[seq % frames.size()], seq, recorder, &warm);
  }
  const tools::AllocSnapshot before = tools::alloc_snapshot();
  for (int f = 0; f < kMeasured; ++f, ++seq) {
    deliver_frame(pool, encoder, frames[seq % frames.size()], seq, recorder, &measured);
  }
  const tools::AllocSnapshot d = tools::alloc_delta(before);
  return {static_cast<double>(d.allocations) / kMeasured,
          static_cast<double>(measured.copied_bytes) / kMeasured,
          static_cast<double>(measured.wire_bytes) / kMeasured};
}

TEST(NetAlloc, WarmDeliveryPathAllocatesAtMostTwoPerFrameAndCopiesNothing) {
  const DeliveryCost cost = warm_delivery_cost(nullptr);
  EXPECT_LE(cost.allocs, 2.0);
  EXPECT_EQ(cost.copied_bytes, 0.0);
}

TEST(NetAlloc, TracedDeliveryCarriesMoreWireBytes) {
  obs::SpanRecorder recorder;
  const DeliveryCost traced = warm_delivery_cost(&recorder);
  const DeliveryCost plain = warm_delivery_cost(nullptr);
  EXPECT_GT(traced.wire_bytes, plain.wire_bytes);
  EXPECT_EQ(traced.copied_bytes, 0.0);
}

// A whole warm served frame (admission, scheduler, pooled render scratch,
// the callback NetServer uses) allocates at most 0.035 times and 20 bytes
// on average, both on a continuing orbit and after the orbit jumps back to its
// start.
TEST(NetAlloc, WarmServedFrameAllocatesAtMostTwoPerFrame) {
  serve::ServiceOptions sopt;
  sopt.worker_threads = 4;
  serve::RenderService service(sopt);
  // The callback captures one pointer, so it fits std::function's inline
  // storage; the atomic is the futex the loop waits on.
  struct Sink {
    std::atomic<int> done{0};
    serve::ServeStatus status = serve::ServeStatus::kError;
    ImageU8 image;
  } sink;
  const auto serve_one = [&](int f) {
    serve::RenderRequest req;
    req.session_id = 1;
    req.volume = small_key(64);
    req.camera = Camera::orbit({64, 64, 64}, f * 2.0 * kDeg, 0.35);
    sink.status = serve::ServeStatus::kError;
    const serve::ServeStatus admitted =
        service.submit_async(std::move(req), [sp = &sink](serve::FrameResult r) {
          sp->status = r.status;
          sp->image = std::move(r.image);
          sp->done.store(1, std::memory_order_release);
          sp->done.notify_one();
        });
    if (admitted != serve::ServeStatus::kOk) return false;
    sink.done.wait(0, std::memory_order_acquire);
    // relaxed: the next submit_async's queue handoff orders this reset
    // before the scheduler's completion store.
    sink.done.store(0, std::memory_order_relaxed);
    if (sink.status != serve::ServeStatus::kOk) return false;
    service.recycle_frame(std::move(sink.image));
    return true;
  };
  // Counts frames [first, last) of the orbit: allocations and bytes per frame.
  const auto count = [&](int first, int last) {
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    int ok = 0;
    for (int f = first; f < last; ++f) ok += serve_one(f) ? 1 : 0;
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    EXPECT_EQ(ok, last - first);
    return std::pair<double, double>{static_cast<double>(d.allocations) / (last - first),
                                     static_cast<double>(d.bytes) / (last - first)};
  };
  // The frame pool and the render scratch keep growing over the orbit's
  // first ~45 degrees (24 frames); the rest of the first pass over frames
  // 0-95 is a continuing orbit, and the second pass jumps back to frame 0.
  constexpr int kOrbitWarmup = 24;
  for (int f = 0; f < kOrbitWarmup; ++f) ASSERT_TRUE(serve_one(f));
  // Measured 2 allocations (18 B per frame) on the continuing pass and 2
  // (15 B per frame) on the jump-back pass, both from profile growth; the
  // session rotation FIFO keeps its capacity, so it adds none.
  const auto [cont_allocs, cont_bytes] = count(kOrbitWarmup, kMeasured);
  EXPECT_LE(cont_allocs, 0.035);
  EXPECT_LE(cont_bytes, 20.0);
  const auto [back_allocs, back_bytes] = count(0, kMeasured);
  EXPECT_LE(back_allocs, 0.035);
  EXPECT_LE(back_bytes, 20.0);
}

}  // namespace
}  // namespace psw::net
