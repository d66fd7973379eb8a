//! The background training thread — the paper's two-threaded design
//! (Fig. 7(a)).
//!
//! The *RL decision thread* (the agent inside the storage manager's
//! request path) sends experiences over a channel 7 and keeps serving
//! placements from its adopted copy of the inference network 2 . The
//! *RL training thread* consumes experiences 8 , runs training steps 9 ,
//! and publishes its learner's inference network, which the decision
//! thread copies into its own 10 — so training never blocks
//! decision-making.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use sibyl_nn::Mlp;

use crate::buffer::Experience;
use crate::config::SibylConfig;
use crate::learner::{Inference, Learner};

/// Weights published by the trainer for the decision thread to adopt.
#[derive(Debug)]
pub(crate) struct Published {
    /// Increments at every publication; the decision thread copies only
    /// when it observes a new generation.
    pub generation: u64,
    pub weights: Mlp,
    pub train_steps: u64,
    /// Wall-clock nanoseconds the trainer has spent in training steps.
    pub train_ns: u64,
}

/// Handle owned by the agent's decision side.
#[derive(Debug)]
pub(crate) struct BackgroundTrainer {
    tx: Option<Sender<Experience>>,
    published: Arc<Mutex<Published>>,
    /// The decision side's copy of the inference network (the learner is
    /// out of its reach), as of the published `generation` last adopted.
    adopted: Mlp,
    generation: u64,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl BackgroundTrainer {
    /// Spawns the training thread.
    pub(crate) fn spawn(config: &SibylConfig, n_actions: usize, obs_len: usize) -> Self {
        let mut learner = Learner::new(config, n_actions, obs_len);
        let adopted = learner.inference().net.clone();
        let published = Arc::new(Mutex::new(Published {
            generation: 0,
            weights: adopted.clone(),
            train_steps: 0,
            train_ns: 0,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<Experience>(4 * config.train_interval as usize);

        let published_thread = Arc::clone(&published);
        let stop_thread = Arc::clone(&stop);
        let train_interval = config.train_interval;
        let handle = std::thread::Builder::new()
            .name("sibyl-training".to_string())
            .spawn(move || {
                let mut received: u64 = 0;
                let mut next_train_at = train_interval;
                loop {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(exp) => {
                            learner.push(exp);
                            received += 1;
                            if received >= next_train_at {
                                next_train_at += train_interval;
                                if learner.train_step().is_some() {
                                    let mut p = published_thread.lock();
                                    p.weights.copy_weights_from(learner.inference().net);
                                    p.generation += 1;
                                    p.train_steps = learner.train_steps;
                                    p.train_ns = learner.train_ns;
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            if stop_thread.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
            // sibyl-lint: allow(unwrap-in-lib) -- spawn failure at construction is unrecoverable for a background trainer; documented panic
            .expect("failed to spawn sibyl training thread");

        BackgroundTrainer {
            tx: Some(tx),
            published,
            adopted,
            generation: 0,
            stop,
            handle: Some(handle),
        }
    }

    /// Sends one experience to the trainer (drops it if the channel is
    /// full — decision-making must never block on training).
    pub(crate) fn send(&self, exp: Experience) {
        if let Some(tx) = &self.tx {
            let _ = tx.try_send(exp);
        }
    }

    /// The adopted network under the published generation it came from.
    pub(crate) fn inference(&self) -> Inference<'_> {
        Inference {
            net: &self.adopted,
            generation: self.generation,
        }
    }

    /// Adopts newly published weights, if any, returning the trainer's
    /// `(train_steps, train_ns)` as of them. Never blocks on the trainer.
    pub(crate) fn adopt(&mut self) -> Option<(u64, u64)> {
        let p = self.published.try_lock()?;
        (p.generation > self.generation).then(|| {
            self.adopted.copy_weights_from(&p.weights);
            self.generation = p.generation;
            (p.train_steps, p.train_ns)
        })
    }

    /// Stops and joins the training thread.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.tx = None; // disconnects the channel
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BackgroundTrainer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SibylConfig {
        SibylConfig {
            train_interval: 32,
            buffer_capacity: 64,
            batch_size: 8,
            batches_per_step: 1,
            n_atoms: 5,
            ..Default::default()
        }
    }

    fn exp(tag: f32) -> Experience {
        Experience {
            obs: vec![tag; 6],
            action: (tag as usize) % 2,
            reward: tag.fract(),
            next_obs: vec![tag + 0.5; 6],
        }
    }

    #[test]
    fn trainer_publishes_new_generations() {
        let mut t = BackgroundTrainer::spawn(&tiny_config(), 2, 6);
        for i in 0..256 {
            t.send(exp(i as f32 * 0.01));
        }
        // Wait for at least one publication.
        // sibyl-lint: allow(wallclock-in-logic) -- test-only liveness deadline: bounds how long the test waits, never the result
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            {
                let p = t.published.lock();
                if p.generation > 0 {
                    assert!(p.train_steps > 0);
                    break;
                }
            }
            assert!(
                // sibyl-lint: allow(wallclock-in-logic) -- test-only liveness deadline: bounds how long the test waits, never the result
                std::time::Instant::now() < deadline,
                "trainer never published"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        t.shutdown();
    }

    /// Adoption site 3 of 3, the decision side's copy of published
    /// weights: a core that has decided (and remembers) an observation must
    /// agree with a fresh one after every adoption, the one that flips the
    /// argmax included. Fails if `adopt` stops taking the published
    /// generation.
    #[test]
    fn adopted_weights_start_a_new_generation() {
        use crate::decision::DecisionCore;
        let cfg = SibylConfig {
            exploration: 0.0,
            exploration_initial: 0.0,
            learning_rate: 0.05,
            ..tiny_config()
        };
        let mut t = BackgroundTrainer::spawn(&cfg, 2, 6);
        let mut core = DecisionCore::new(&cfg, 2, 1);
        let obs = vec![0.5f32; 6];
        let before = core.act(t.inference(), obs.clone())[0];
        // sibyl-lint: allow(wallclock-in-logic) -- test-only liveness deadline: bounds how long the test waits, never the result
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut sent = 0usize;
        loop {
            // Reward only the action the untrained network does not take.
            for _ in 0..32 {
                let action = sent % 2;
                t.send(Experience {
                    obs: vec![0.5 + (sent % 64) as f32 * 1e-4; 6],
                    action,
                    reward: if action == before { 0.0 } else { 1.0 },
                    next_obs: vec![0.5; 6],
                });
                sent += 1;
            }
            if t.adopt().is_some() {
                let fresh = DecisionCore::new(&cfg, 2, 1).act(t.inference(), obs.clone())[0];
                assert_eq!(core.act(t.inference(), obs.clone())[0], fresh, "stale memo");
                if fresh != before {
                    break;
                }
            }
            assert!(
                // sibyl-lint: allow(wallclock-in-logic) -- test-only liveness deadline: bounds how long the test waits, never the result
                std::time::Instant::now() < deadline,
                "no adoption flipped the decision"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        t.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_nonblocking() {
        let mut t = BackgroundTrainer::spawn(&tiny_config(), 2, 6);
        t.send(exp(0.1));
        t.shutdown();
        t.shutdown(); // second call is a no-op
    }

    #[test]
    fn drop_joins_thread() {
        let t = BackgroundTrainer::spawn(&tiny_config(), 2, 6);
        t.send(exp(0.2));
        drop(t); // must not hang or panic
    }
}
