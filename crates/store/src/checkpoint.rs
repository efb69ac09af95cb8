//! Durability policy knobs: when the write-ahead log fsyncs, and how
//! often it folds the splice history into a full-document checkpoint.
//!
//! The policy half of the durability subsystem is deliberately tiny and
//! side-effect free — [`crate::wal::DurabilityManager`] consults it on
//! every append, and the crash-matrix oracle sweeps its parameters —
//! so the *mechanism* (framing, fault injection, recovery) can be tested
//! against every policy point without special cases.

/// When appends are flushed to stable storage.
///
/// The acknowledged-prefix invariant (see `DESIGN.md`) is stated in terms
/// of fsync acknowledgements: a publication is *acknowledged* once a sync
/// covering its record returns, and every acknowledged publication must
/// survive any later crash byte-identically. The policy only moves the
/// acknowledgement point; it never weakens the invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record: every publication is acknowledged before
    /// it becomes visible to readers. The default.
    Always,
    /// Sync after every `n`-th record: up to `n - 1` trailing
    /// publications may be lost on a crash (but never surface corrupt).
    EveryN(u32),
    /// Never sync explicitly: nothing is acknowledged, and a crash may
    /// lose the entire log tail beyond what the backend flushed on its
    /// own. Useful only for measuring the fsync cost itself.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never` or `every:N`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other
                .strip_prefix("every:")
                .and_then(|n| n.parse::<u32>().ok())
            {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "invalid --fsync value {other:?} (expected always, never or every:N)"
                )),
            },
        }
    }
}

/// Configuration of one durable store: checkpoint cadence and fsync
/// policy. Swept by the crash-matrix oracle; surfaced on the CLI as
/// `--checkpoint-every` and `--fsync`.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// `Splices` records between periodic full-document checkpoint
    /// frames (`0` = none after the initial checkpoint); a publication
    /// logged as a checkpoint starts the count over. Checkpoints bound
    /// recovery replay length at the cost of log bytes.
    pub checkpoint_every: u64,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_every: 8,
            fsync: FsyncPolicy::Always,
        }
    }
}

impl DurabilityOptions {
    /// Whether a checkpoint is due after `records_since_checkpoint`
    /// `Splices` records have accumulated past the last checkpoint.
    pub fn checkpoint_due(&self, records_since_checkpoint: u64) -> bool {
        self.checkpoint_every > 0 && records_since_checkpoint >= self.checkpoint_every
    }

    /// Whether a sync is due after `appends_since_sync` unsynced appends
    /// (counting the one just performed).
    pub fn sync_due(&self, appends_since_sync: u32) -> bool {
        match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => appends_since_sync >= n,
            FsyncPolicy::Never => false,
        }
    }
}

/// Aggregate counters of one [`crate::wal::DurabilityManager`], compared
/// against the trace stream by `axml_obs::check_wal_accounting`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Publication and watermark records appended, a publication logged
    /// as a checkpoint included.
    pub appends: usize,
    /// Appends covered by a successful sync at append time.
    pub synced_appends: usize,
    /// Initial and periodic checkpoint frames written.
    pub checkpoints: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every:3"), Ok(FsyncPolicy::EveryN(3)));
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn checkpoint_cadence() {
        let opts = DurabilityOptions {
            checkpoint_every: 3,
            fsync: FsyncPolicy::Always,
        };
        assert!(!opts.checkpoint_due(2));
        assert!(opts.checkpoint_due(3));
        let never = DurabilityOptions {
            checkpoint_every: 0,
            fsync: FsyncPolicy::Always,
        };
        assert!(!never.checkpoint_due(1_000_000));
    }

    #[test]
    fn sync_cadence() {
        let every2 = DurabilityOptions {
            checkpoint_every: 8,
            fsync: FsyncPolicy::EveryN(2),
        };
        assert!(!every2.sync_due(1));
        assert!(every2.sync_due(2));
        assert!(DurabilityOptions::default().sync_due(1));
        let never = DurabilityOptions {
            checkpoint_every: 8,
            fsync: FsyncPolicy::Never,
        };
        assert!(!never.sync_due(100));
    }
}
