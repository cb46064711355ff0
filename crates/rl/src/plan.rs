//! The order and memory layout in which a batch sweep visits states.

/// States swept together: one block holds up to this many states of one
/// level, stored `[action][lane]`.
pub(crate) const LANES: usize = 8;

/// A model's states grouped into *levels* and blocks, with its
/// successor table in block layout — what
/// [`batch_value_sweep_report`](crate::batch_value_sweep_report) runs
/// on.
///
/// Two states *read each other* when one is a successor of the other.
/// A state's level is its longest-path depth over such pairs, each pair
/// directed from the lower index to the higher, so no two states of one
/// level read each other and every pair keeps its index order across
/// levels. States are in plan order: by level, then by index. Each
/// level is cut into blocks of up to eight states; a block's last
/// lanes past the end of its level are padding.
///
/// Positions come in two numberings. A *row* counts states in plan
/// order (`0..states`); a table in plan layout stores block `k`'s rows
/// `block_rows[k]..block_rows[k + 1]` as `[action][lane]`. A *slot*
/// counts lanes including the padding (`8k + lane`); the successor table
/// and the sweep's per-state arrays are indexed by slot.
///
/// # Example
///
/// ```
/// use rl::SweepPlan;
///
/// // A 3-state chain: action 0 stays, action 1 steps right.
/// let plan = SweepPlan::new(3, 2, |s, a| if a == 0 { s } else { (s + 1).min(2) });
/// assert_eq!(plan.levels(), 3);
/// assert_eq!(plan.level(1), &[1]);
/// assert_eq!(plan.successor(1, 1), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SweepPlan {
    actions: usize,
    /// States in plan order.
    order: Vec<u32>,
    /// Row where each level starts, then the state count.
    level_rows: Vec<u32>,
    /// Row where each block starts, then the state count.
    block_rows: Vec<u32>,
    /// Each state's slot.
    slot: Vec<u32>,
    /// Successor slot of every `(block, action, lane)`, stored
    /// `[block][action][lane]`. A padding lane is its own successor.
    succ: Vec<u32>,
}

impl SweepPlan {
    /// Derives the plan of a model with `states` states and `actions`
    /// actions from its transition function, which is called once per
    /// `(s, a)` in index order.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero, `states` does not fit the plan's
    /// `u32` slots, or a transition leaves the state space.
    pub fn new(
        states: usize,
        actions: usize,
        mut transition: impl FnMut(usize, usize) -> usize,
    ) -> Self {
        assert!(
            states > 0 && actions > 0,
            "plan dimensions must be positive"
        );
        assert!(
            states <= u32::MAX as usize / LANES,
            "too many states for a plan"
        );
        let mut next = Vec::with_capacity(states.checked_mul(actions).expect("plan too large"));
        for s in 0..states {
            for a in 0..actions {
                let s2 = transition(s, a);
                assert!(s2 < states, "transition ({s},{a}) -> {s2} out of range");
                next.push(s2 as u32);
            }
        }

        // Longest-path depth. Visiting states in index order, a state's
        // lower-indexed neighbours are final when it is reached: its
        // successors below it are read here, its predecessors below it
        // pushed their depth into it when they were visited.
        let mut level = vec![0u32; states];
        for (s, row) in next.chunks_exact(actions).enumerate() {
            for &s2 in row.iter().filter(|&&s2| (s2 as usize) < s) {
                level[s] = level[s].max(level[s2 as usize] + 1);
            }
            for &s2 in row.iter().filter(|&&s2| (s2 as usize) > s) {
                level[s2 as usize] = level[s2 as usize].max(level[s] + 1);
            }
        }

        // Counting sort by level; within a level, index order.
        let levels = level.iter().max().map_or(0, |&l| l as usize + 1);
        let mut level_rows = vec![0u32; levels + 1];
        for &l in &level {
            level_rows[l as usize + 1] += 1;
        }
        for l in 0..levels {
            level_rows[l + 1] += level_rows[l];
        }
        let mut fill = level_rows.clone();
        let mut order = vec![0u32; states];
        for (s, &l) in level.iter().enumerate() {
            order[fill[l as usize] as usize] = s as u32;
            fill[l as usize] += 1;
        }

        let mut block_rows = vec![0u32];
        for bounds in level_rows.windows(2) {
            let mut row = bounds[0];
            while row < bounds[1] {
                row = (row + LANES as u32).min(bounds[1]);
                block_rows.push(row);
            }
        }
        let blocks = block_rows.len() - 1;
        let mut slot = vec![0u32; states];
        for k in 0..blocks {
            for (lane, row) in (block_rows[k]..block_rows[k + 1]).enumerate() {
                slot[order[row as usize] as usize] = (k * LANES + lane) as u32;
            }
        }
        let mut succ = vec![0u32; blocks * actions * LANES];
        for (k, block) in succ.chunks_exact_mut(actions * LANES).enumerate() {
            for lane in 0..LANES {
                let row = block_rows[k] as usize + lane;
                for a in 0..actions {
                    block[a * LANES + lane] = if row < block_rows[k + 1] as usize {
                        slot[next[order[row] as usize * actions + a] as usize]
                    } else {
                        (k * LANES + lane) as u32
                    };
                }
            }
        }
        SweepPlan {
            actions,
            order,
            level_rows,
            block_rows,
            slot,
            succ,
        }
    }

    /// Number of states.
    pub(crate) fn num_states(&self) -> usize {
        self.order.len()
    }

    /// Number of actions.
    pub(crate) fn num_actions(&self) -> usize {
        self.actions
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.level_rows.len() - 1
    }

    /// The states of level `l`, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `l >= levels()`.
    pub fn level(&self, l: usize) -> &[u32] {
        &self.order[self.level_rows[l] as usize..self.level_rows[l + 1] as usize]
    }

    /// The state reached by taking `a` in `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `a` is out of range.
    pub fn successor(&self, s: usize, a: usize) -> usize {
        assert!(a < self.actions, "action {a} out of range");
        let own = self.slot[s] as usize;
        let next = self.succ[(own / LANES * self.actions + a) * LANES + own % LANES] as usize;
        self.order[self.block_rows[next / LANES] as usize + next % LANES] as usize
    }

    /// Number of blocks; slots run over `0..blocks() * LANES`.
    pub(crate) fn blocks(&self) -> usize {
        self.block_rows.len() - 1
    }

    /// The first row and the width of block `k`.
    pub(crate) fn block(&self, k: usize) -> (usize, usize) {
        let start = self.block_rows[k] as usize;
        (start, self.block_rows[k + 1] as usize - start)
    }

    /// Block `k`'s successor slots, `[action][lane]`.
    pub(crate) fn block_successors(&self, k: usize) -> &[u32] {
        let len = self.actions * LANES;
        &self.succ[k * len..(k + 1) * len]
    }

    /// State `s`'s slot.
    pub(crate) fn slot(&self, s: usize) -> usize {
        self.slot[s] as usize
    }

    /// Where state `s`'s first action sits in a table in plan layout,
    /// and the step to its next action.
    pub(crate) fn row(&self, s: usize) -> (usize, usize) {
        let slot = self.slot[s] as usize;
        let (start, width) = self.block(slot / LANES);
        (start * self.actions + slot % LANES, width)
    }

    /// Permutes a state-major table (row `s` holds state `s`) into plan
    /// layout, in place.
    pub(crate) fn to_plan_layout(&self, values: &mut [f32]) {
        permute_rows(values, self.actions, |row| self.order[row] as usize);
        self.transpose_blocks(values, true);
    }

    /// Inverse of [`to_plan_layout`](Self::to_plan_layout).
    pub(crate) fn to_state_major(&self, values: &mut [f32]) {
        self.transpose_blocks(values, false);
        let mut rows = vec![0u32; self.order.len()];
        for (row, &s) in self.order.iter().enumerate() {
            rows[s as usize] = row as u32;
        }
        permute_rows(values, self.actions, |s| rows[s] as usize);
    }

    /// Turns every block's rows from `[lane][action]` into
    /// `[action][lane]` (`forward`) or back.
    fn transpose_blocks(&self, values: &mut [f32], forward: bool) {
        let a = self.actions;
        let mut scratch = vec![0.0f32; a * LANES];
        for k in 0..self.blocks() {
            let (start, width) = self.block(k);
            let block = &mut values[start * a..(start + width) * a];
            let scratch = &mut scratch[..block.len()];
            let (from, to) = if forward { (a, width) } else { (width, a) };
            // Entry `j` of the `i`-th `from`-wide run moves to entry `i`
            // of the `j`-th `to`-wide run.
            for (i, run) in block.chunks_exact(from).enumerate() {
                for (j, &v) in run.iter().enumerate() {
                    scratch[j * to + i] = v;
                }
            }
            block.copy_from_slice(scratch);
        }
    }
}

/// Shapes only: the tables run to megabytes.
impl std::fmt::Debug for SweepPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPlan")
            .field("states", &self.order.len())
            .field("actions", &self.actions)
            .field("levels", &self.levels())
            .finish_non_exhaustive()
    }
}

/// Rearranges the `width`-wide rows of `values` in place so that row
/// `dst` receives the row that was at `src_of(dst)`, which must be a
/// permutation. Follows each cycle once, holding one row aside.
fn permute_rows(values: &mut [f32], width: usize, src_of: impl Fn(usize) -> usize) {
    let rows = values.len() / width;
    let mut done = vec![false; rows];
    let mut held = vec![0.0f32; width];
    for start in 0..rows {
        if done[start] {
            continue;
        }
        held.copy_from_slice(&values[start * width..(start + 1) * width]);
        let mut dst = start;
        loop {
            done[dst] = true;
            let src = src_of(dst);
            if src == start {
                values[dst * width..(dst + 1) * width].copy_from_slice(&held);
                break;
            }
            values.copy_within(src * width..(src + 1) * width, dst * width);
            dst = src;
        }
    }
}
