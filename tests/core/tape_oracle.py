"""The dynamic-tape KGAG step, kept as the oracle for the compiled executor.

``KGAGTrainer`` trains every :class:`~repro.core.model.KGAG` through
:mod:`repro.nn.compile`.  :class:`TapeTrainer` restores the step it ran
before: one :meth:`~repro.core.model.KGAG.group_item_scores_pair` call,
the user head, :func:`~repro.core.losses.combined_loss` and
``loss.backward()`` on the tape.  Tests compare the two with
``np.array_equal``.
"""

import numpy as np

from repro.core import KGAGTrainer
from repro.core.losses import combined_loss
from repro.nn import Tensor


class TapeTrainer(KGAGTrainer):
    """A trainer whose KGAG step never leaves the dynamic tape."""

    def _forward_backward(self, batch):
        self.optimizer.zero_grad()
        triplets = batch.group_triplets
        pos_scores, neg_scores = self.model.group_item_scores_pair(
            triplets[:, 0], triplets[:, 1], triplets[:, 2]
        )
        if len(batch.user_pairs):
            user_scores = self.model.user_item_scores(
                batch.user_pairs[:, 0], batch.user_pairs[:, 1]
            )
            user_labels = Tensor(batch.user_pairs[:, 2].astype(np.float64))
        else:
            user_scores, user_labels = None, None
        loss = combined_loss(
            pos_scores,
            neg_scores,
            user_scores,
            user_labels,
            beta=self.config.beta,
            loss_kind=self.config.loss,
            margin=self.config.margin,
        )
        loss.backward()
        return loss
