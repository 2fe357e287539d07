#pragma once

namespace dsp::runtime {

/// Ignored, empty placeholder for the removed auto-tuner.  Nothing reads
/// it; it exists only because the serving benchmark (perfbench/) still
/// names it through Approx54Params::tuner, and goes with the next change
/// to that benchmark.
class AutoTuner {};

}  // namespace dsp::runtime
