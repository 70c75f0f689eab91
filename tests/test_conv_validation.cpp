// Geometry validation of the per-iteration entry points: backward() and
// update() must reject mismatched tensors with std::invalid_argument exactly
// like forward() does — before these checks existed a wrong-shape tensor in
// bwd/upd silently corrupted memory.
#include <gtest/gtest.h>

#include <stdexcept>

#include "test_helpers.hpp"

using namespace xconv;

namespace {

core::ConvLayer make_layer() {
  return core::ConvLayer(core::make_conv(2, 16, 32, 8, 8, 3, 3, 1));
}

}  // namespace

TEST(ConvValidation, ForwardRejectsMismatchedTensors) {
  auto layer = make_layer();
  auto in = layer.make_input();
  auto wt = layer.make_weights();
  auto out = layer.make_output();

  // Wrong minibatch.
  tensor::ActTensor bad_in(1, 16, 8, 8, in.pad_h(), in.pad_w(), in.vlen());
  EXPECT_THROW(layer.forward(bad_in, wt, out), std::invalid_argument);
  // Wrong halo.
  tensor::ActTensor bad_out(2, 32, 8, 8, out.pad_h() + 1, out.pad_w(),
                            out.vlen());
  EXPECT_THROW(layer.forward(in, wt, bad_out), std::invalid_argument);
  // Wrong filter size.
  tensor::WtTensor bad_wt(wt.outer(), wt.inner(), 5, 5, wt.vlen());
  EXPECT_THROW(layer.forward(in, bad_wt, out), std::invalid_argument);
}

TEST(ConvValidation, BackwardRejectsMismatchedTensors) {
  auto layer = make_layer();
  auto dout = layer.make_output();
  auto wt = layer.make_weights();
  auto din = layer.make_input();

  // Wrong channel count in dO.
  tensor::ActTensor bad_dout(2, 16, 8, 8, dout.pad_h(), dout.pad_w(),
                             dout.vlen());
  EXPECT_THROW(layer.backward(bad_dout, wt, din), std::invalid_argument);
  // Wrong spatial dims in dI.
  tensor::ActTensor bad_din(2, 16, 9, 9, din.pad_h(), din.pad_w(),
                            din.vlen());
  EXPECT_THROW(layer.backward(dout, wt, bad_din), std::invalid_argument);
  // Missing halo on dO (plain P x Q tensor instead of make_output()).
  tensor::ActTensor nohalo_dout(2, 32, 8, 8, 0, 0, dout.vlen());
  EXPECT_THROW(layer.backward(nohalo_dout, wt, din), std::invalid_argument);
  // Wrong weight block structure (channel blocks swapped).
  tensor::WtTensor bad_wt(wt.inner(), wt.outer(), wt.r(), wt.s(), wt.vlen());
  if (wt.inner() != wt.outer()) {
    EXPECT_THROW(layer.backward(dout, bad_wt, din), std::invalid_argument);
  }
  // Wrong filter size.
  tensor::WtTensor bad_rs(wt.outer(), wt.inner(), 1, 1, wt.vlen());
  EXPECT_THROW(layer.backward(dout, bad_rs, din), std::invalid_argument);
}

TEST(ConvValidation, UpdateRejectsMismatchedTensors) {
  auto layer = make_layer();
  auto in = layer.make_input();
  auto dout = layer.make_output();
  auto dwt = layer.make_weights();

  // Wrong input width.
  tensor::ActTensor bad_in(2, 16, 8, 7, in.pad_h(), in.pad_w(), in.vlen());
  EXPECT_THROW(layer.update(bad_in, dout, dwt), std::invalid_argument);
  // Wrong horizontal halo on dO (pad_h correct, pad_w off — the pre-fix
  // check ignored pad_w entirely).
  tensor::ActTensor bad_dout(2, 32, 8, 8, dout.pad_h(), dout.pad_w() + 1,
                             dout.vlen());
  EXPECT_THROW(layer.update(in, bad_dout, dwt), std::invalid_argument);
  // Wrong input horizontal halo (pad_w was unchecked pre-fix too).
  tensor::ActTensor bad_in_pw(2, 16, 8, 8, in.pad_h(), in.pad_w() + 1,
                              in.vlen());
  EXPECT_THROW(layer.update(bad_in_pw, dout, dwt), std::invalid_argument);
  // Wrong dW filter size.
  tensor::WtTensor bad_dwt(dwt.outer(), dwt.inner(), 1, 1, dwt.vlen());
  EXPECT_THROW(layer.update(in, dout, bad_dwt), std::invalid_argument);
}

TEST(ConvValidation, MakeConvRejectsEvenFiltersWithDefaultPad) {
  // pad=-1 means "same" padding of (R-1)/2 — undefined for even filter dims
  // (the symmetric pad does not exist and the output domain would silently
  // shrink). Such layers must pass an explicit pad.
  EXPECT_THROW(core::make_conv(1, 16, 16, 8, 8, 2, 2, 1),
               std::invalid_argument);
  EXPECT_THROW(core::make_conv(1, 16, 16, 8, 8, 4, 4, 2),
               std::invalid_argument);
  // One even axis is enough to reject.
  EXPECT_THROW(core::make_conv(1, 16, 16, 8, 8, 3, 2, 1),
               std::invalid_argument);
  EXPECT_THROW(core::make_conv(1, 16, 16, 8, 8, 2, 3, 1),
               std::invalid_argument);
  // An explicit pad keeps even filters usable.
  EXPECT_NO_THROW(core::make_conv(1, 16, 16, 8, 8, 2, 2, 1, 0));
  EXPECT_NO_THROW(core::make_conv(1, 16, 16, 8, 8, 2, 2, 1, 1));
  // Odd filters keep the default-pad convenience.
  EXPECT_NO_THROW(core::make_conv(1, 16, 16, 8, 8, 3, 3, 1));
  EXPECT_NO_THROW(core::make_conv(1, 16, 16, 8, 8, 5, 1, 1));
}

TEST(ConvValidation, MatchingTensorsPass) {
  auto layer = make_layer();
  auto in = layer.make_input();
  auto wt = layer.make_weights();
  auto out = layer.make_output();
  auto din = layer.make_input();
  auto dwt = layer.make_weights();
  EXPECT_NO_THROW(layer.forward(in, wt, out));
  EXPECT_NO_THROW(layer.backward(out, wt, din));
  EXPECT_NO_THROW(layer.update(in, out, dwt));
}

// Generated kernels step feature blocks by an int32 byte count. A 1x1 layer
// whose input block (8200 x 8200 pixels, two or more blocks: the Cb loop in
// the kernel) or, for the stride-2 backward, output block spans more than
// INT32_MAX bytes is rejected at construction, before any kernel or stream
// is built, on every ISA (the scalar kernels included). No tensor is
// allocated.
TEST(ConvValidation, FeatureBlockStridePastInt32Rejected) {
  const core::ConvParams shapes[] = {
      core::make_conv(1, 32, 32, 8200, 8200, 1, 1, 1, 0),
      core::make_conv(1, 16, 16, 16400, 16400, 1, 1, 2, 0)};
  for (const core::ConvParams& p : shapes) {
    for (const platform::Isa isa :
         {platform::Isa::scalar, platform::effective_isa()}) {
      SCOPED_TRACE(p.to_string() + " " + platform::isa_name(isa));
      core::ConvOptions o;
      o.isa = isa;
      o.threads = 1;
      EXPECT_THROW(core::ConvLayer(p, o), std::invalid_argument);
    }
  }
}

// Rows are int32 byte strides too: every kernel's input and output rows and
// the strided backward's scattered dI rows (stride_h input rows apart). A
// layer whose input row is 1 GiB has a 2 GiB scattered row at stride 2, and
// one twice as wide has a 2 GiB input row. Both are rejected at
// construction, before the forward recorder would record the million-odd
// calls of their streams, on every ISA.
TEST(ConvValidation, RowStridePastInt32Rejected) {
  for (const platform::Isa isa :
       {platform::Isa::scalar, platform::effective_isa()}) {
    // One channel block (C = K = vlen), so no feature-block stride fails
    // first.
    const int v = core::resolved_vlen(isa), gib_row = (1 << 30) / (4 * v);
    const core::ConvParams shapes[] = {
        core::make_conv(1, v, v, 2, gib_row, 1, 1, 2, 0),
        core::make_conv(1, v, v, 1, 2 * gib_row, 1, 1, 1, 0)};
    for (const core::ConvParams& p : shapes) {
      SCOPED_TRACE(p.to_string() + " " + platform::isa_name(isa));
      core::ConvOptions o;
      o.isa = isa;
      o.threads = 1;
      try {
        core::ConvLayer layer(p, o);
        ADD_FAILURE() << "constructed";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("row stride"), std::string::npos)
            << e.what();
      }
    }
  }
}
