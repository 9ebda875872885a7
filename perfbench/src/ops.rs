//! The ops table: every distinct layer shape of a workload's full
//! model, harvested from its [`Blueprint`], timed forward and backward
//! at the workload's training batch size.

use std::collections::BTreeMap;
use std::time::Instant;

use adaptivefl_models::{Block, Blueprint};
use adaptivefl_nn::layer::Layer;
use adaptivefl_nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d, Linear};
use adaptivefl_tensor::{init, Tensor};
use rand_chacha::ChaCha8Rng;

use crate::stats;

/// Layer classes the table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Dense convolution with a kernel larger than 1×1.
    Conv,
    /// Dense 1×1 convolution.
    Pointwise,
    /// Depthwise convolution.
    Depthwise,
    /// Fully connected layer.
    Linear,
    /// 2-D batch normalisation.
    BatchNorm,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Conv,
        OpClass::Pointwise,
        OpClass::Depthwise,
        OpClass::Linear,
        OpClass::BatchNorm,
    ];

    /// Metric name segment.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Conv => "conv",
            OpClass::Pointwise => "pointwise",
            OpClass::Depthwise => "depthwise",
            OpClass::Linear => "linear",
            OpClass::BatchNorm => "batchnorm",
        }
    }
}

/// One layer shape: class, channels/features, kernel geometry and
/// input spatial size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Op {
    class: OpClass,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
}

impl Op {
    fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Work of one forward pass over `batch` samples: multiply-adds for
    /// convolutions and linear layers, elements for batch-norm.
    pub fn work(&self, batch: usize) -> f64 {
        let (oh, ow) = self.out_hw();
        let per_sample = match self.class {
            OpClass::Conv | OpClass::Pointwise => {
                self.out_c * self.in_c * self.k * self.k * oh * ow
            }
            OpClass::Depthwise => self.out_c * self.k * self.k * oh * ow,
            OpClass::Linear => self.in_c * self.out_c,
            OpClass::BatchNorm => self.out_c * self.h * self.w,
        };
        (per_sample * batch) as f64
    }

    fn input_shape(&self, batch: usize) -> Vec<usize> {
        match self.class {
            OpClass::Linear => vec![batch, self.in_c],
            _ => vec![batch, self.in_c, self.h, self.w],
        }
    }

    fn build(&self, rng: &mut ChaCha8Rng) -> Box<dyn Layer> {
        match self.class {
            OpClass::Conv | OpClass::Pointwise => Box::new(Conv2d::new(
                self.in_c,
                self.out_c,
                self.k,
                self.stride,
                self.pad,
                rng,
            )),
            OpClass::Depthwise => Box::new(DepthwiseConv2d::new(
                self.in_c,
                self.k,
                self.stride,
                self.pad,
                rng,
            )),
            OpClass::Linear => Box::new(Linear::new(self.in_c, self.out_c, rng)),
            OpClass::BatchNorm => Box::new(BatchNorm2d::new(self.in_c)),
        }
    }
}

/// Symbolic activation while walking a blueprint.
#[derive(Clone, Copy)]
enum Act {
    Map(usize, usize, usize),
    Flat,
}

fn walk(blocks: &[Block], mut act: Act, ops: &mut Vec<Op>) -> Act {
    for b in blocks {
        act = step(b, act, ops);
    }
    act
}

fn step(block: &Block, act: Act, ops: &mut Vec<Op>) -> Act {
    match (block, act) {
        (Block::Conv(c), Act::Map(_, h, w)) => {
            let class = if c.depthwise {
                OpClass::Depthwise
            } else if c.k == 1 {
                OpClass::Pointwise
            } else {
                OpClass::Conv
            };
            let op = Op {
                class,
                in_c: c.in_c,
                out_c: c.out_c,
                k: c.k,
                stride: c.stride,
                pad: c.pad,
                h,
                w,
            };
            let (oh, ow) = op.out_hw();
            ops.push(op);
            if c.bn {
                ops.push(Op {
                    class: OpClass::BatchNorm,
                    in_c: c.out_c,
                    out_c: c.out_c,
                    k: 1,
                    stride: 1,
                    pad: 0,
                    h: oh,
                    w: ow,
                });
            }
            Act::Map(c.out_c, oh, ow)
        }
        (Block::Linear(l), _) => {
            ops.push(Op {
                class: OpClass::Linear,
                in_c: l.in_f,
                out_c: l.out_f,
                k: 1,
                stride: 1,
                pad: 0,
                h: 1,
                w: 1,
            });
            Act::Flat
        }
        (Block::MaxPool(win), Act::Map(c, h, w)) => Act::Map(c, h / win, w / win),
        (Block::GlobalAvgPool, Act::Map(..)) => Act::Flat,
        (Block::Flatten, _) => Act::Flat,
        (Block::Residual { main, shortcut }, _) => {
            let out = walk(main, act, ops);
            if let Some(sc) = shortcut {
                walk(sc, act, ops);
            }
            out
        }
        (Block::LinearResidual { main }, _) => walk(main, act, ops),
        (_, act) => act,
    }
}

/// Every layer shape of a blueprint with its multiplicity.
pub fn harvest(bp: &Blueprint, input: (usize, usize, usize)) -> BTreeMap<Op, usize> {
    let mut ops = Vec::new();
    let mut act = Act::Map(input.0, input.1, input.2);
    let mut seg_out = Vec::with_capacity(bp.segments.len());
    for seg in &bp.segments {
        act = walk(seg, act, &mut ops);
        seg_out.push(act);
    }
    for &e in &bp.active_exits {
        walk(&bp.exits[e], seg_out[e], &mut ops);
    }
    let mut table = BTreeMap::new();
    for op in ops {
        *table.entry(op).or_insert(0) += 1;
    }
    table
}

/// Throughput of one layer class over a whole model.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassRate {
    /// Layers of the class in the model (with multiplicity).
    pub layers: usize,
    /// Forward work per millisecond (MACs or elements).
    pub fwd_per_ms: f64,
    /// Backward work per millisecond, counting backward work as twice
    /// the forward work (input and parameter gradients).
    pub bwd_per_ms: f64,
}

/// Times every distinct shape `reps` times (after one warm-up) and
/// sums work and median time over the model's layers per class.
pub fn measure(
    table: &BTreeMap<Op, usize>,
    batch: usize,
    reps: usize,
    rng: &mut ChaCha8Rng,
) -> BTreeMap<OpClass, ClassRate> {
    // (layers, work, fwd ms, bwd ms) per class.
    let mut acc: BTreeMap<OpClass, (usize, f64, f64, f64)> = BTreeMap::new();
    for (op, &count) in table {
        let mut layer = op.build(rng);
        let x = init::uniform(&op.input_shape(batch), -1.0, 1.0, rng);
        let mut fwd = Vec::with_capacity(reps);
        let mut bwd = Vec::with_capacity(reps);
        for rep in 0..=reps {
            let xi = x.clone();
            let t0 = Instant::now();
            let y = layer.forward(xi, true);
            let f = t0.elapsed().as_secs_f64() * 1e3;
            let dy = Tensor::ones(y.shape());
            let t1 = Instant::now();
            let dx = layer.backward(dy);
            let b = t1.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(dx);
            layer.zero_grads();
            if rep > 0 {
                fwd.push(f);
                bwd.push(b);
            }
        }
        let e = acc.entry(op.class).or_default();
        e.0 += count;
        e.1 += count as f64 * op.work(batch);
        e.2 += count as f64 * stats::median(&fwd);
        e.3 += count as f64 * stats::median(&bwd);
    }
    acc.into_iter()
        .map(|(class, (layers, work, f, b))| {
            (
                class,
                ClassRate {
                    layers,
                    fwd_per_ms: work / f,
                    bwd_per_ms: 2.0 * work / b,
                },
            )
        })
        .collect()
}
