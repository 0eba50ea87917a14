"""Training history and early stopping for the model trainers.

:class:`History` records per-epoch losses and throughput, and
:class:`EarlyStopping` decides when a monitored loss has stopped improving;
:class:`repro.models.trainer.RouteNetTrainer` uses both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["History", "EarlyStopping"]


class History:
    """Per-epoch record of training and validation losses.

    Besides the losses, each epoch may record two throughput figures (both
    optional, ``None`` when the loop does not measure them):
    ``samples_per_sec`` — trained scenarios per wall-clock second — and
    ``peak_live_batches`` — the largest number of merged batches that were
    simultaneously materialised.  Together they make streaming-vs-in-memory
    regressions visible straight from the history, without the benchmark
    suite: an in-memory epoch holds every batch live, a streamed epoch only
    a bounded prefetch window.
    """

    def __init__(self) -> None:
        self.epochs: List[int] = []
        self.train_loss: List[float] = []
        self.val_loss: List[Optional[float]] = []
        self.epoch_seconds: List[float] = []
        self.samples_per_sec: List[Optional[float]] = []
        self.peak_live_batches: List[Optional[int]] = []

    def record(self, epoch: int, train_loss: float, val_loss: Optional[float],
               seconds: float, samples_per_sec: Optional[float] = None,
               peak_live_batches: Optional[int] = None) -> None:
        self.epochs.append(epoch)
        self.train_loss.append(train_loss)
        self.val_loss.append(val_loss)
        self.epoch_seconds.append(seconds)
        self.samples_per_sec.append(samples_per_sec)
        self.peak_live_batches.append(peak_live_batches)

    @property
    def best_val_loss(self) -> Optional[float]:
        observed = [v for v in self.val_loss if v is not None]
        return min(observed) if observed else None

    @property
    def best_train_loss(self) -> float:
        return min(self.train_loss) if self.train_loss else float("nan")

    def as_dict(self) -> Dict[str, list]:
        return {
            "epochs": list(self.epochs),
            "train_loss": list(self.train_loss),
            "val_loss": list(self.val_loss),
            "epoch_seconds": list(self.epoch_seconds),
            "samples_per_sec": list(self.samples_per_sec),
            "peak_live_batches": list(self.peak_live_batches),
        }


class EarlyStopping:
    """Stop training when the monitored loss stops improving."""

    def __init__(self, patience: int = 5, min_delta: float = 0.0) -> None:
        if patience <= 0:
            raise ValueError("patience must be positive")
        self.patience = patience
        self.min_delta = min_delta
        self.best: Optional[float] = None
        self.wait = 0
        self.stopped_epoch: Optional[int] = None

    def update(self, value: float, epoch: int) -> bool:
        """Record ``value``; return True when training should stop."""
        if self.best is None or value < self.best - self.min_delta:
            self.best = value
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience:
            self.stopped_epoch = epoch
            return True
        return False
